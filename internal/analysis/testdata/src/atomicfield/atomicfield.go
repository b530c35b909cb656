// Package atomicfield is the golden fixture for the atomicfield
// analyzer: a function-form sync/atomic call and a typed atomic.
package atomicfield

import "sync/atomic"

type counters struct {
	plain uint64
	typed atomic.Uint64
}

func (c *counters) bump() {
	atomic.AddUint64(&c.plain, 1) // want `call of sync/atomic.AddUint64`
	c.typed.Add(1)
}

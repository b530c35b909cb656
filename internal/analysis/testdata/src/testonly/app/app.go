// Package app is a non-test package of the fixture module.
package app

import "testonly/internal/lib"

type greeter interface{ Greet(lib.Name) string }

func hello(g greeter) string { return g.Greet("app") }

// Run uses lib.
func Run() string {
	lib.Used()
	return hello(lib.Greeter{})
}

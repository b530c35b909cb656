package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// Write-ahead log. One WAL file exists per snapshot generation and logs
// every mutation applied after that snapshot. Layout:
//
//	magic "SPHRWAL1"
//	records: u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 op | body
//	  opBatch  (2): u32 count | count binary triples — buffered on
//	                replay, applied only when a commit marker follows.
//	  opCommit (3): empty — applies all buffered batches atomically
//	                through the bulk loader.
//
// Replay tells a torn record from an intact one by its frame alone. A
// record that fails its length or checksum check is a torn tail: replay
// stops and truncates the file there, and every record before it is
// honored. Batch records without a trailing commit marker are discarded
// too — a bulk load is durable only once its commit marker is on disk,
// mirroring the in-memory staging contract. A record that passes both
// checks is intact: it is applied, or, when this build cannot decode it,
// replay fails with errUndecodable and recovery stops. An intact record
// is never discarded.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	walMagic = "SPHRWAL1"

	opBatch  = 2
	opCommit = 3

	// walBatchChunk bounds triples per opBatch record so a torn batch
	// loses one record, not the whole load, and record sizes stay
	// cache-friendly.
	walBatchChunk = 4096

	// walMaxRecord rejects absurd record lengths before allocating.
	walMaxRecord = 64 << 20

	// walFlushBytes caps the user-space pending buffer of a buffered
	// WAL; appends past it flush inline so memory stays bounded even
	// if the sync timer stalls.
	walFlushBytes = 256 << 10
)

// wal is an open write-ahead log file.
type wal struct {
	f    File
	name string
	buf  []byte
	// buffered group-commits records in pending instead of issuing one
	// Write syscall per record. Only legal under FsyncInterval/FsyncOff:
	// those policies already tolerate losing the un-synced tail, and
	// the sync timer (or an explicit sync/close) flushes the buffer, so
	// the loss window is unchanged — at most the last interval. A
	// FsyncAlways WAL writes through: its records must be on disk
	// before the sync that follows each mutation.
	buffered bool
	pending  []byte
	// size tracks bytes logged (including pending), so the DB can
	// expose WAL growth.
	size int64
	// err is the first append, flush or sync failure; every later call
	// returns it, since a later commit marker would commit what a failed
	// batch left in the file. Only a new WAL (reopen, snapshot) clears it.
	err error
}

// createWAL creates (truncates) a WAL file and writes its magic.
func createWAL(fs FS, name string) (*wal, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("persist: creating WAL %s: %w", name, err)
	}
	w := &wal{f: f, name: name}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		_ = f.Close() // error path: the write failure is the one to report
		return nil, fmt.Errorf("persist: writing WAL magic: %w", err)
	}
	w.size = int64(len(walMagic))
	return w, nil
}

// openWALAppend opens an existing WAL (already truncated to its last
// intact record) for appending.
func openWALAppend(fs FS, name string, size int64) (*wal, error) {
	f, err := fs.Append(name)
	if err != nil {
		return nil, fmt.Errorf("persist: opening WAL %s: %w", name, err)
	}
	return &wal{f: f, name: name, size: size}, nil
}

// appendRecord frames and writes one payload in a single Write call, so
// a torn write maps to exactly one incomplete record. A buffered WAL
// stages the frame in pending instead; a torn flush then spans several
// records, which replay handles the same way — truncate at the first
// bad frame.
func (w *wal) appendRecord(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, castagnoli))
	w.buf = append(w.buf, payload...)
	if w.buffered {
		w.pending = append(w.pending, w.buf...)
		w.size += int64(len(w.buf))
		if len(w.pending) >= walFlushBytes {
			return w.flush()
		}
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err != nil {
		w.err = fmt.Errorf("persist: appending WAL record: %w", err)
		return w.err
	}
	return nil
}

// flush hands the pending buffer to the OS. On a write error the buffer
// is dropped, not retried: a partial write already put unknown bytes in
// the file, and re-writing the whole buffer would corrupt the record
// stream where replay's truncate-at-first-bad-frame recovery handles a
// lost tail cleanly.
func (w *wal) flush() error {
	if w.err != nil || len(w.pending) == 0 {
		return w.err
	}
	_, err := w.f.Write(w.pending)
	w.pending = w.pending[:0]
	if err != nil {
		w.err = fmt.Errorf("persist: flushing WAL buffer: %w", err)
		return w.err
	}
	return nil
}

// appendBatch logs triples as chunked opBatch records followed by one
// opCommit marker.
func (w *wal) appendBatch(triples []rdf.Triple) error {
	for len(triples) > 0 {
		n := len(triples)
		if n > walBatchChunk {
			n = walBatchChunk
		}
		p := make([]byte, 0, n*64)
		p = append(p, opBatch)
		p = binary.LittleEndian.AppendUint32(p, uint32(n))
		for _, tr := range triples[:n] {
			p = rdf.AppendTriple(p, tr)
		}
		if err := w.appendRecord(p); err != nil {
			return err
		}
		triples = triples[n:]
	}
	return w.appendRecord([]byte{opCommit})
}

func (w *wal) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("persist: syncing WAL: %w", err)
	}
	return w.err
}

func (w *wal) close() error {
	ferr := w.flush()
	if cerr := w.f.Close(); ferr == nil {
		ferr = cerr
	}
	return ferr
}

// walReplay reports what replayWAL recovered.
type walReplay struct {
	// records is the number of applied records.
	records int
	// triples is the number of triples offered to the store (including
	// duplicates the store deduplicated).
	triples int
	// goodBytes is the file offset after the last applied record; the
	// caller truncates the file here.
	goodBytes int64
	// truncated reports whether a torn or corrupt tail was dropped.
	truncated bool
}

// replayWAL reads a WAL file and applies its committed prefix to s.
// It stops at the first torn or corrupt record. A missing or
// magic-corrupt file replays as empty (goodBytes 0 tells the caller to
// recreate it). An intact record this build cannot decode returns an
// error wrapping errUndecodable that names the file and the record's
// offset; the caller must then change nothing. Decoding never panics
// regardless of file contents.
func replayWAL(fs FS, name string, s *store.Store) (walReplay, error) {
	var rep walReplay
	data, err := readAll(fs, name)
	if err != nil {
		return rep, fmt.Errorf("persist: reading WAL %s: %w", name, err)
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		rep.truncated = len(data) > 0
		return rep, nil
	}
	off := int64(len(walMagic))

	// Batches buffer through a dedicated loader and only reach the
	// store when their commit marker proves they were fully logged.
	bl := store.NewBulkLoader(s)
	pendingBytes := off // start of the oldest unapplied batch record

	for int64(len(data))-off >= 8 {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if plen == 0 || plen > walMaxRecord || plen > int64(len(data))-off-8 {
			break
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			break
		}
		if err := decodeRecord(payload, bl); err != nil {
			return rep, fmt.Errorf("persist: WAL %s record at byte %d is %w: %v", name, off, errUndecodable, err)
		}
		rep.records++
		off += 8 + plen
		if payload[0] == opCommit {
			rep.triples += bl.Commit()
			pendingBytes = off
		}
	}

	// goodBytes excludes both the corrupt tail and any batch records
	// whose commit marker never made it to disk.
	rep.goodBytes = pendingBytes
	rep.truncated = rep.goodBytes != int64(len(data))
	return rep, nil
}

// decodeRecord decodes one intact record and stages an opBatch's
// triples in bl; replayWAL commits them at the opCommit that follows.
// A record this build does not write is an error.
func decodeRecord(payload []byte, bl *store.BulkLoader) error {
	switch payload[0] {
	case opBatch:
		if len(payload) < 5 {
			return fmt.Errorf("batch record of %d bytes", len(payload))
		}
		count := binary.LittleEndian.Uint32(payload[1:])
		if count > walBatchChunk {
			return fmt.Errorf("batch of %d triples", count)
		}
		body := payload[5:]
		for i := uint32(0); i < count; i++ {
			tr, n, err := rdf.DecodeTriple(body)
			if err != nil {
				return err
			}
			if err := bl.Add(tr); err != nil {
				return err
			}
			body = body[n:]
		}
		if len(body) != 0 {
			return fmt.Errorf("%d trailing bytes in batch record", len(body))
		}
	case opCommit:
		if len(payload) != 1 {
			return fmt.Errorf("commit record with a %d-byte body", len(payload)-1)
		}
	default:
		return fmt.Errorf("unknown op %d", payload[0])
	}
	return nil
}

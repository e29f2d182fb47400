package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// sinkChunk is the allocation unit of a retaining sink: fixed chunks
// avoid the copy-and-double growth of one large buffer.
const sinkChunk = 1 << 20

// sinkBuffer is the buffer between a JournalWriter and its sink, as a
// production journal file would have one: the journal issues small
// writes, two per binary record.
const sinkBuffer = 64 << 10

// journalSink is the writer the benchmark hands to a JournalWriter:
// a buffer in front of a store that counts every byte. While retaining,
// the store also keeps the bytes, so the journal prefix written so far
// can be digested and replayed; after stopRetaining it only counts,
// which bounds memory for the timed phases. In a traced run every write
// that reaches the store is a journal.write span on the owning
// goroutine's track. Use a sink from one goroutine at a time.
type journalSink struct {
	buf    *bufio.Writer
	chunks [][]byte
	retain bool
	bytes  int64
	writes int64
	trk    *track
}

// newJournalSink returns a retaining sink; trk may be nil.
func newJournalSink(trk *track) *journalSink {
	s := &journalSink{retain: true, trk: trk}
	s.buf = bufio.NewWriterSize(storeWriter{s}, sinkBuffer)
	return s
}

// Write implements io.Writer by buffering p.
func (s *journalSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

// flush pushes the buffered bytes to the store. The store never fails,
// so neither does flushing.
func (s *journalSink) flush() { _ = s.buf.Flush() }

// storeWriter is the io.Writer face of the sink's store.
type storeWriter struct{ s *journalSink }

// Write implements io.Writer: it counts p and keeps it while retaining.
func (w storeWriter) Write(p []byte) (int, error) {
	s := w.s
	s.trk.begin(layerJournalWrite, 0)
	s.bytes += int64(len(p))
	s.writes++
	if s.retain {
		s.keep(p)
	}
	s.trk.end()
	return len(p), nil
}

// keep appends p to the retained chunks.
func (s *journalSink) keep(p []byte) {
	for len(p) > 0 {
		if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
			s.chunks = append(s.chunks, make([]byte, 0, sinkChunk))
		}
		last := &s.chunks[len(s.chunks)-1]
		k := cap(*last) - len(*last)
		if k > len(p) {
			k = len(p)
		}
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
}

// stopRetaining keeps the bytes written so far and only counts later
// writes. Call it between journal records.
func (s *journalSink) stopRetaining() {
	s.flush()
	s.retain = false
}

// reader returns a reader over the retained bytes.
func (s *journalSink) reader() io.Reader {
	s.flush()
	rs := make([]io.Reader, len(s.chunks))
	for i, c := range s.chunks {
		rs[i] = bytes.NewReader(c)
	}
	return io.MultiReader(rs...)
}

// digest returns the hex SHA-256 of the retained bytes.
func (s *journalSink) digest() string {
	s.flush()
	h := sha256.New()
	for _, c := range s.chunks {
		_, _ = h.Write(c) // a hash.Hash never returns an error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// release drops the retained bytes.
func (s *journalSink) release() { s.chunks = nil }

package server

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// loopReader serves data over and over without allocating, splitting the
// stream wherever the caller's buffer or the end of data falls.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestReadReplyAllocsZero checks that skimming replies, bulk payloads
// included, allocates nothing.
func TestReadReplyAllocsZero(t *testing.T) {
	replies := "$5\r\nhello\r\n:1\r\n+OK\r\n$-1\r\n$40\r\n" + strings.Repeat("x", 40) + "\r\n"
	want := []byte{'$', ':', '+', '$', '$'}
	c := &Client{br: bufio.NewReaderSize(&loopReader{data: []byte(replies)}, 16)}
	run := func() {
		for i, w := range want {
			kind, err := c.ReadReply()
			if err != nil || kind != w {
				t.Fatalf("reply %d: %q, %v; want %q", i, kind, err, w)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("ReadReply allocated %.1f times per %d replies, want 0", allocs, len(want))
	}
}

// TestReadReplyBulkAcrossReads feeds a bulk reply in two reads, split
// inside the payload, and checks that the reply after it still parses.
// A bulk cut short reports an error.
func TestReadReplyBulkAcrossReads(t *testing.T) {
	c := &Client{br: bufio.NewReaderSize(io.MultiReader(
		strings.NewReader("$11\r\nhello "),
		strings.NewReader("world\r\n:7\r\n"),
	), 16)}
	for _, want := range []byte{'$', ':'} {
		kind, err := c.ReadReply()
		if err != nil || kind != want {
			t.Fatalf("got %q, %v; want %q", kind, err, want)
		}
	}
	if _, err := c.ReadReply(); err != io.EOF {
		t.Fatalf("after the last reply: err = %v, want EOF", err)
	}

	short := &Client{br: bufio.NewReader(strings.NewReader("$11\r\nhello"))}
	if _, err := short.ReadReply(); err == nil {
		t.Fatal("truncated bulk reply: want an error")
	}
}

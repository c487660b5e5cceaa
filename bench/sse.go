package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// sseEvent is one estimate event of GET /v1/stream/{field}, plus when
// and how large it arrived.
type sseEvent struct {
	Seq        int     `json:"seq"`
	TimeUnixMs int64   `json:"time_unix_ms"`
	Nodes      int     `json:"nodes"`
	Mean       float64 `json:"mean"`
	Variance   float64 `json:"variance"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	Dropped    int     `json:"dropped"`

	recv  time.Time
	bytes int // the event's size on the wire, framing included
}

// errStreamEnded reports the server's clean "event: end" marker.
var errStreamEnded = errors.New("sse: server ended the stream")

// readSSE parses a text/event-stream body, calling fn for every data
// event until the body ends. It returns errStreamEnded when the server
// closed the stream deliberately, the read error otherwise (io.EOF for
// a connection that simply broke off).
func readSSE(body io.Reader, fn func(sseEvent)) error {
	br := bufio.NewReaderSize(body, 4096)
	var data []byte
	size, ended := 0, false
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return err
		}
		size += len(line)
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0: // blank line dispatches the event
			if ended {
				return errStreamEnded
			}
			if data != nil {
				ev := sseEvent{recv: time.Now(), bytes: size}
				if err := json.Unmarshal(data, &ev); err != nil {
					return fmt.Errorf("sse: bad event %q: %w", data, err)
				}
				fn(ev)
			}
			data, size = nil, 0
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data[:0:0], bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		case bytes.Equal(line, []byte("event: end")):
			ended = true
		}
	}
}

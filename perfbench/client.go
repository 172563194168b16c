package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP side: one keep-alive connection per
// closed-loop client, never more than conns.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to path and reads the whole response into buf,
// failing on any status other than want.
func (c *client) post(path string, body []byte, want int, buf *bytes.Buffer) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("read %s response: %w", path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, buf.Bytes())
	}
	return nil
}

// opRecord is one op of a closed loop.
type opRecord struct {
	start, end time.Time
	err        error
}

// closedLoop runs ops ops over conns clients, each sending its next op
// only after the previous one completed. Op indices are handed out in
// order, so the request stream is the same whatever the interleaving.
// buffers gives each client its own response buffer.
func closedLoop(conns, ops int, op func(i int, buf *bytes.Buffer) error) []opRecord {
	recs := make([]opRecord, ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= ops {
					return
				}
				t0 := time.Now()
				err := op(i, &buf)
				recs[i] = opRecord{start: t0, end: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return recs
}

// loopOutcome folds op records into counts and the window.
type loopOutcome struct {
	recs              []opRecord
	attempted, failed int
	firstErr          error
	window            time.Duration
}

func outcomeOf(recs []opRecord) loopOutcome {
	o := loopOutcome{recs: recs, attempted: len(recs)}
	if len(recs) == 0 {
		return o
	}
	first, last := recs[0].start, recs[0].end
	for i, r := range recs {
		if r.err != nil {
			o.failed++
			if o.firstErr == nil {
				o.firstErr = fmt.Errorf("op %d: %w", i, r.err)
			}
		}
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	o.window = last.Sub(first)
	return o
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// client is the generator's HTTP side: the request loops' connections
// (nproc-1, at least one) and the dashboard's own single connection, so
// the generator never holds more than nproc connections and a dashboard
// read never queues behind a window for a connection; plus the
// attempted/failed tally every checked response feeds.
type client struct {
	hc   *http.Client
	dash *http.Client

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // first few failure reasons (guarded by mu)
}

// loopConns is how many connections the request loops share when the
// generator may hold conns in all: one is the dashboard's.
func loopConns(conns int) int { return max(1, conns-1) }

func newClient(conns int) *client {
	pool := func(n int) *http.Client {
		tr := &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		}
		return &http.Client{Transport: tr, Timeout: 120 * time.Second}
	}
	return &client{hc: pool(loopConns(conns)), dash: pool(1)}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.dash.CloseIdleConnections()
}

// do sends one request on the loops' connections and reads the whole
// response body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	return c.send(c.hc, method, url, body)
}

// dashGet sends one GET on the dashboard's connection.
func (c *client) dashGet(url string) (int, []byte, error) {
	return c.send(c.dash, http.MethodGet, url, nil)
}

func (c *client) send(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(url string) (int, []byte, error) { return c.do(http.MethodGet, url, nil) }

// attempt counts one checked operation.
func (c *client) attempt() { c.attempted.Add(1) }

// fail counts one failed, refused or wrong response and keeps its reason.
func (c *client) fail(format string, args ...any) {
	c.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
}

// expect checks a response's status; a transport error or another status
// counts as a failure. It reports whether the response may be used.
func (c *client) expect(what string, want, got int, body []byte, err error) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	if got != want {
		if len(body) > 200 {
			body = body[:200]
		}
		c.fail("%s: status %d, want %d: %s", what, got, want, body)
		return false
	}
	return true
}

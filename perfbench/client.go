package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

const tenant = "bench"

// transport is the load generator's only connection pool: at most two
// connections to the server under test, matching the two closed-loop
// clients of the busiest workload.
var transport = &http.Transport{
	MaxConnsPerHost:     2,
	MaxIdleConnsPerHost: 2,
	DisableCompression:  true,
}

// client issues the workload's requests and books every outcome in
// the ledger: transport errors and 4xx/429/5xx replies are failures.
type client struct {
	hc   *http.Client
	base string
	led  *ledger
}

func newClient(base string, led *ledger) *client {
	return &client{hc: &http.Client{Transport: transport, Timeout: time.Minute}, base: base, led: led}
}

// do sends one request and decodes a 2xx JSON reply into out.
func (c *client) do(method, path string, body []byte, out any) bool {
	c.led.attempted.Add(1)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.led.note(&c.led.transport, "%s %s: %v", method, path, err)
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.led.note(&c.led.transport, "%s %s: %v", method, path, err)
		return false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.led.note(&c.led.transport, "%s %s: read reply: %v", method, path, err)
		return false
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		c.led.note(&c.led.status429, "%s %s: %s", method, path, data)
		return false
	case resp.StatusCode >= 500:
		c.led.note(&c.led.status5xx, "%s %s: %d %s", method, path, resp.StatusCode, data)
		return false
	case resp.StatusCode >= 300:
		c.led.note(&c.led.status4xx, "%s %s: %d %s", method, path, resp.StatusCode, data)
		return false
	}
	if out == nil {
		return true
	}
	if err := json.Unmarshal(data, out); err != nil {
		c.led.note(&c.led.mismatch, "%s %s: bad reply %q: %v", method, path, data, err)
		return false
	}
	return true
}

// spec is the create body of one sketch (server.Spec plus its name).
type spec struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Algo        string `json:"algo"`
	Dim         int    `json:"dim"`
	Words       int    `json:"words,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	PaneWidthMS int64  `json:"pane_width_ms,omitempty"`
}

func (c *client) create(s spec) bool {
	body, err := json.Marshal(s)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return c.do("POST", "/v1/"+tenant+"/sketches", body, nil)
}

// ingest posts one frame of n elements and checks the applied count.
func (c *client) ingest(name string, slot int, frame []byte, n int) bool {
	var reply struct {
		Applied int `json:"applied"`
	}
	path := "/v1/" + tenant + "/sketches/" + name + "/ingest?slot=" + strconv.Itoa(slot)
	if !c.do("POST", path, frame, &reply) {
		return false
	}
	if reply.Applied != n {
		c.led.note(&c.led.mismatch, "ingest %s applied %d of %d", name, reply.Applied, n)
		return false
	}
	return true
}

// queryPath renders the GET path of one point-query batch.
func queryPath(name string, idx []int) string {
	v := url.Values{}
	for _, i := range idx {
		v.Add("i", strconv.Itoa(i))
	}
	return "/v1/" + tenant + "/sketches/" + name + "/query?" + v.Encode()
}

// query runs one batch query and checks the reply's shape.
func (c *client) query(path string, n int) ([]float64, bool) {
	var reply struct {
		Estimates []float64 `json:"estimates"`
	}
	if !c.do("GET", path, nil, &reply) {
		return nil, false
	}
	ok := len(reply.Estimates) == n
	for _, v := range reply.Estimates {
		ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if !ok {
		c.led.note(&c.led.mismatch, "query %s: %d estimates, want %d finite", path, len(reply.Estimates), n)
		return nil, false
	}
	return reply.Estimates, true
}

// topk runs one top-k query and checks the reply's shape.
func (c *client) topk(name string, k int) bool {
	var reply struct {
		TopK []struct {
			Index int `json:"index"`
		} `json:"topk"`
	}
	if !c.do("GET", fmt.Sprintf("/v1/%s/sketches/%s/topk?k=%d", tenant, name, k), nil, &reply) {
		return false
	}
	ok := len(reply.TopK) == k
	for _, d := range reply.TopK {
		ok = ok && d.Index >= 0 && d.Index < dim
	}
	if !ok {
		c.led.note(&c.led.mismatch, "topk %s: %d deviators, want %d in range", name, len(reply.TopK), k)
	}
	return ok
}

func (c *client) checkpoint() bool { return c.do("POST", "/v1/checkpoint", nil, nil) }

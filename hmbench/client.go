package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hypermine/internal/engine"
)

// The read kinds of the mix, with loadgen's default weights.
const (
	kClassify = iota
	kClassifyBatch
	kSimilar
	kRules
	kDominators
	numKinds
)

var (
	kindNames  = [numKinds]string{"classify", "classify_batch", "similar", "rules", "dominators"}
	mixWeights = [numKinds]int{8, 2, 2, 1, 1}
)

// query is one pre-generated read, both as an HTTP request and as the
// engine request the server decodes it into.
type query struct {
	kind   int
	method string
	path   string // path and query string
	body   []byte
	req    engine.Request
	ref    []byte // the expected response body, set during set-up
}

// modelInfo is the part of GET /v1/models/{name} the pool needs.
type modelInfo struct {
	K         int      `json:"k"`
	Dominator []string `json:"dominator"`
	Targets   []string `json:"targets"`
}

// Pool sizes: rule heads stay well inside the engine's 64-entry rule
// LRU, so every warm read is a cache hit. Each write makes every head
// cold again, and the churn reader pays a full mine per head; four
// heads keep that work from swamping the writes it competes with.
const (
	classifyPool = 32
	batchPool    = 16
	batchRows    = 8
	maxRuleHeads = 4
)

// buildPool draws the distinct reads of the mix from rng. (Marshalling
// maps of strings and ints cannot fail, hence the dropped errors.)
func buildPool(rng *rand.Rand, info *modelInfo, attrs []string) [numKinds][]*query {
	var pool [numKinds][]*query
	base := "/v1/models/" + modelName
	for i := 0; i < classifyPool; i++ {
		values := map[string]int{}
		for _, a := range info.Dominator {
			values[a] = 1 + rng.Intn(info.K)
		}
		target := info.Targets[rng.Intn(len(info.Targets))]
		body, _ := json.Marshal(map[string]any{"target": target, "values": values})
		pool[kClassify] = append(pool[kClassify], &query{kind: kClassify, method: http.MethodPost,
			path: base + "/classify", body: body,
			req: engine.Request{Classify: &engine.ClassifyRequest{Target: target, Values: values}}})
	}
	for i := 0; i < batchPool; i++ {
		rows := make([][]int, batchRows)
		for r := range rows {
			rows[r] = make([]int, len(info.Dominator))
			for j := range rows[r] {
				rows[r][j] = 1 + rng.Intn(info.K)
			}
		}
		target := info.Targets[rng.Intn(len(info.Targets))]
		body, _ := json.Marshal(map[string]any{"target": target, "rows": rows})
		pool[kClassifyBatch] = append(pool[kClassifyBatch], &query{kind: kClassifyBatch, method: http.MethodPost,
			path: base + "/classify:batch", body: body,
			req: engine.Request{Classify: &engine.ClassifyRequest{Target: target, Rows: rows}}})
	}
	for _, a := range attrs {
		pool[kSimilar] = append(pool[kSimilar], &query{kind: kSimilar, method: http.MethodGet,
			path: base + "/similar?a=" + url.QueryEscape(a) + "&top=5",
			req:  engine.Request{Similar: &engine.SimilarRequest{A: a, Top: 5}}})
	}
	for i, h := range info.Targets {
		if i == maxRuleHeads {
			break
		}
		pool[kRules] = append(pool[kRules], &query{kind: kRules, method: http.MethodGet,
			path: base + "/rules?head=" + url.QueryEscape(h) + "&top=5",
			req:  engine.Request{Rules: &engine.RulesRequest{Head: h, Top: 5}}})
	}
	pool[kDominators] = []*query{{kind: kDominators, method: http.MethodGet, path: base + "/dominators",
		req: engine.Request{Dominators: &engine.DominatorsRequest{}}}}
	return pool
}

// drawMix draws n reads from the pool by the mix weights.
func drawMix(rng *rand.Rand, pool [numKinds][]*query, n int) []*query {
	total := 0
	for _, w := range mixWeights {
		total += w
	}
	out := make([]*query, n)
	for i := range out {
		pick := rng.Intn(total)
		k := 0
		for pick >= mixWeights[k] {
			pick -= mixWeights[k]
			k++
		}
		out[i] = pool[k][rng.Intn(len(pool[k]))]
	}
	return out
}

// newConn returns a client that holds at most one connection per host:
// each of the generator's two clients is one load connection.
func newConn() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func closeConn(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one HTTP answer.
type reply struct {
	status int
	gen    int64 // X-Model-Generation, -1 when absent
	body   []byte
}

// send issues one request. parent, when non-zero, is sent in the span
// header so the fleet's wrappers can attach their spans to it.
func send(c *http.Client, method, url, contentType string, body []byte, parent spanRef) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if parent.id != 0 {
		req.Header.Set(spanHeader, parent.header())
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, gen: -1, body: raw}
	if g := resp.Header.Get("X-Model-Generation"); g != "" {
		if r.gen, err = strconv.ParseInt(g, 10, 64); err != nil {
			return reply{}, fmt.Errorf("bad X-Model-Generation %q", g)
		}
	}
	return r, nil
}

// read sends q to base.
func read(c *http.Client, base string, q *query, parent spanRef) (reply, error) {
	ct := ""
	if q.body != nil {
		ct = "application/json"
	}
	return send(c, q.method, base+q.path, ct, q.body, parent)
}

// fetchInfo reads the model summary through base.
func fetchInfo(c *http.Client, base string) (*modelInfo, error) {
	r, err := send(c, http.MethodGet, base+"/v1/models/"+modelName, "", nil, spanRef{})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET model: %d: %s", r.status, r.body)
	}
	var info modelInfo
	if err := json.Unmarshal(r.body, &info); err != nil {
		return nil, err
	}
	if len(info.Dominator) == 0 || len(info.Targets) == 0 {
		return nil, fmt.Errorf("model has no dominator/targets to classify with")
	}
	return &info, nil
}

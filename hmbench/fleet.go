package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hypermine/internal/fleet"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
)

// The fleet the serve and churn phases drive: three members and one
// router on loopback, each configured as a hypermined daemon runs by
// default (R=2, 128 vnodes, tracing on, admission off, lazy warm-up,
// one-second gossip).
const (
	fleetSize      = 3
	fleetReplicas  = 2
	gossipInterval = time.Second
	modelName      = "bench"
)

type member struct {
	name string
	url  string
	reg  *registry.Registry
	srv  *server.Server
	node *fleet.Node
	hs   *http.Server
}

type cluster struct {
	members   []*member
	byName    map[string]*member
	router    *fleet.Router
	routerURL string
	routerHS  *http.Server
}

// quietLogger formats every record as the daemon's text logger does but
// writes nowhere, so the program pays its logging cost without the
// benchmark's output filling with load lines.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// pushName names a member-to-member request by its fleet endpoint.
func pushName(r *http.Request) string {
	switch p := r.URL.Path; {
	case strings.HasPrefix(p, "/fleet/replicate/"):
		return "replicate"
	case strings.HasPrefix(p, "/fleet/snapshot/"):
		return "pull"
	default:
		return "gossip"
	}
}

// startCluster boots the fleet and waits until every member is ready
// for writes. With rec set, the router's handler, each member's
// handler, and both HTTP clients are wrapped to record spans; with
// memberDelay set, each member's handler busy-waits for as many
// nanoseconds as it holds at the time first.
func startCluster(rec *recorder, memberDelay *atomic.Int64) (*cluster, error) {
	c := &cluster{byName: map[string]*member{}}
	lns := make([]net.Listener, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		lns[i] = ln
		m := &member{name: fmt.Sprintf("n%d", i), url: "http://" + ln.Addr().String()}
		c.members = append(c.members, m)
		c.byName[m.name] = m
	}
	all := map[string]string{}
	for _, m := range c.members {
		all[m.name] = m.url
	}
	for i, m := range c.members {
		peers := map[string]string{}
		for _, o := range c.members {
			if o != m {
				peers[o.name] = o.url
			}
		}
		logger := quietLogger()
		m.reg = registry.New(registry.Options{Logger: logger})
		m.srv = server.New(m.reg, server.WithLogger(logger),
			server.WithTracer(telemetry.NewTracer(telemetry.TracerConfig{})))
		cfg := fleet.NodeConfig{Name: m.name, Peers: peers, Replicas: fleetReplicas,
			GossipInterval: gossipInterval, Logger: logger}
		if rec != nil {
			cfg.Client = &http.Client{Timeout: 30 * time.Second,
				Transport: &spanTransport{rec: rec, name: pushName, base: http.DefaultTransport}}
		}
		node, err := fleet.NewNode(cfg, m.reg, m.srv)
		if err != nil {
			c.close()
			return nil, err
		}
		m.node = node
		var h http.Handler = node.Handler()
		if rec != nil || memberDelay != nil {
			h = spanHandler(rec, "member", memberDelay, h)
		}
		m.hs = &http.Server{Handler: h}
		go m.hs.Serve(lns[i])
		node.Start()
	}

	rcfg := fleet.RouterConfig{Peers: all, Replicas: fleetReplicas, Logger: quietLogger(),
		Tracer: telemetry.NewTracer(telemetry.TracerConfig{})}
	if rec != nil {
		rcfg.Client = &http.Client{Timeout: 30 * time.Second,
			Transport: &spanTransport{rec: rec, name: func(*http.Request) string { return "hop" }, base: http.DefaultTransport}}
	}
	rt, err := fleet.NewRouter(rcfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	c.routerURL = "http://" + ln.Addr().String()
	var h http.Handler = rt.Handler()
	if rec != nil {
		h = spanHandler(rec, "router", nil, h)
	}
	c.routerHS = &http.Server{Handler: h}
	go c.routerHS.Serve(ln)

	if err := c.converge(context.Background()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// converge runs gossip rounds until every member is ready for writes.
func (c *cluster) converge(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, m := range c.members {
			if m.node.Ready() != nil {
				ready = false
				if err := m.node.GossipAll(ctx); err != nil {
					return fmt.Errorf("gossip from %s: %w", m.name, err)
				}
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet did not converge within 10s")
		}
	}
}

// owners returns the model's replica set, primary first.
func (c *cluster) owners() []*member {
	var out []*member
	for _, name := range c.router.Ring().Owners(modelName) {
		out = append(out, c.byName[name])
	}
	return out
}

// close stops every server and node and waits for the gossip loops.
func (c *cluster) close() {
	for _, m := range c.members {
		if m.node != nil {
			m.node.Stop()
		}
		if m.hs != nil {
			_ = m.hs.Close()
		}
	}
	if c.routerHS != nil {
		_ = c.routerHS.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

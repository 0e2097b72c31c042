package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	dccs "repro"
	"repro/internal/server"
)

const (
	graphName = "bench"
	// opHeader carries the operation id of a traced request, so the
	// handler wrapper can file its server span under the right operation.
	opHeader = "X-Perfbench-Op"
)

// stack is the system under test: a server.Server behind a loopback
// HTTP listener.
type stack struct {
	srv    *server.Server
	eng    *dccs.Engine
	hs     *http.Server
	served chan error // Serve's return value
	base   string
	client *http.Client

	// tracing, when set, receives the server span of every request that
	// carries opHeader. Unset, the wrapper costs one atomic load.
	tracing atomic.Pointer[recorder]
}

// queueDepth lets a burst of open-loop arrivals, such as those a stall of
// the host leaves due at once, wait for an inflight slot instead of being
// refused: the benchmark measures latency at a fixed load, not admission.
const queueDepth = 64

func serverConfig(w workloadSpec) server.Config {
	return server.Config{CacheEntries: w.CacheEntries, QueueDepth: queueDepth}
}

// startStack builds the stack from the .mlgb file at path: read the
// file, server.New, warm the workload's d set, listen, and wait for the
// first answered /healthz. Its duration is one setup_s sample.
func startStack(w workloadSpec, path string) (*stack, error) {
	g, err := dccs.ReadGraphFile(path)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(serverConfig(w), server.GraphSpec{Name: graphName, Graph: g, Mutable: w.Mutable})
	if err != nil {
		return nil, err
	}
	eng, _ := srv.Engine(graphName)
	if err := eng.Warm(w.Ds...); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{
		srv: srv, eng: eng,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
	h := srv.Handler()
	st.hs = &http.Server{
		Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rec := st.tracing.Load()
			if rec == nil {
				h.ServeHTTP(rw, r)
				return
			}
			start := time.Now()
			h.ServeHTTP(rw, r)
			if id, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
				rec.addServer(id, start, time.Now())
			}
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	if _, err := st.get("/healthz"); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) get(path string) ([]byte, error) {
	resp, err := st.client.Get(st.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// close stops the listener and the server and waits for both.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := st.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	st.client.CloseIdleConnections()
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	rprism "repro"
	"repro/internal/corpus"
	"repro/internal/server"
)

// service is an in-process rprism-serve: internal/server over an
// rprism.Engine and a corpus.Store, listening on loopback, configured
// the way cmd/rprism-serve configures it: the engine's worker budget
// mirrors the request pool, and par is its -parallel setting (0: the
// default, GOMAXPROCS intra-diff workers clamped to free slots).
type service struct {
	store  *corpus.Store
	eng    *rprism.Engine
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startService(dir string, workers, par int, opts corpus.Options) (*service, error) {
	store, err := corpus.New(dir, opts)
	if err != nil {
		return nil, err
	}
	eng := rprism.NewEngine(rprism.WithCorpus(store), rprism.WithWorkers(workers), rprism.WithDiffParallelism(par))
	srv := server.New(eng, server.Options{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{
		store: store, eng: eng, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
		cancel: cancel, done: make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(ctx, ln, 10*time.Second) }()
	return s, nil
}

// stop shuts the server down and waits until it has.
func (s *service) stop() {
	s.cancel()
	if err := <-s.done; err != nil {
		logf("server: %v", err)
	}
	s.client.CloseIdleConnections()
}

// call sends one request and decodes the JSON response into out. A
// status other than want is an error.
func (s *service) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

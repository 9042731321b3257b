package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"homesight/internal/query"
)

// apiServer is the query tier behind a loopback HTTP listener, the way
// `collector -live` and `homestore serve` mount it.
type apiServer struct {
	url     string
	handler http.Handler
	srv     *http.Server
	wg      sync.WaitGroup
	err     error
}

func serveAPI(h http.Handler) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	a := &apiServer{url: "http://" + ln.Addr().String(), handler: h, srv: &http.Server{Handler: h}}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		if err := a.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			a.err = err
		}
	}()
	return a, nil
}

// close stops the listener and waits for the serving goroutine.
func (a *apiServer) close() error {
	err := a.srv.Close()
	a.wg.Wait()
	if a.err != nil {
		return a.err
	}
	return err
}

// newClient returns a keep-alive client of its own connection pool, so
// each load-generating goroutine owns one socket.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// get issues one GET, reads the whole body and checks the versioned
// envelope. Anything but a 200 carrying a v1 envelope with data is an
// error: the caller counts it as a failed operation. The payload comes
// back undecoded, so a latency clock stopped here does not charge the
// system for the load generator's JSON decoding.
func get(c *http.Client, url string) (data json.RawMessage, bodyBytes int, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, len(body), fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("%s: status %d: %.120s", url, resp.StatusCode, body)
	}
	var env struct {
		Version string          `json:"version"`
		Data    json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, len(body), fmt.Errorf("%s: malformed envelope: %w", url, err)
	}
	if env.Version != query.Version || len(env.Data) == 0 {
		return nil, len(body), fmt.Errorf("%s: envelope version %q, %d data bytes", url, env.Version, len(env.Data))
	}
	return env.Data, len(body), nil
}

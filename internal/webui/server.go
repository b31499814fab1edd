package webui

import (
	"net/http"
	"time"
)

// Both binaries' listeners bound how long a client may take to finish
// its request headers and how long an idle keep-alive connection is
// held, so a socket that is opened and then abandoned cannot pin a
// goroutine forever. There is deliberately no WriteTimeout: /events SSE
// streams are long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server cmd/a4nn's metrics listener and
// a4nn-serve both serve h with.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Package sharedclient forbids ad-hoc HTTP clients outside the one
// pooled client package. PR 4 made connection reuse a measured
// property (TestPortalReusesKeepAliveConnections): every component
// reaches archives through internal/httpclient's shared transport, so
// keep-alives amortize across the portal's fan-out. A stray
// &http.Client{} — or http.DefaultClient, or the package-level
// http.Get/Post helpers that use it — silently reintroduces per-call
// connection churn and dodges the testbed's request router. Clients
// must come from internal/httpclient (or be injected through a
// config).
package sharedclient

import (
	"repro/internal/analyze/forbid"
)

// Analyzer is the sharedclient check. Get, Head, Post and PostForm are the
// net/http package-level helpers that route through http.DefaultClient.
var Analyzer = forbid.New("sharedclient",
	"forbid &http.Client{} composite literals, http.DefaultClient, and the http.Get/Post/Head/PostForm "+
		"helpers outside internal/httpclient; all HTTP flows through the shared pooled client so keep-alive "+
		"reuse stays a provable property",
	"repro/internal/httpclient", "comma-separated import paths allowed to construct HTTP clients",
	forbid.Rule{Kind: forbid.Lit, Pkg: "net/http", Names: []string{"Client"},
		Msg: "ad-hoc http.%s literal bypasses the pooled shared client; use httpclient.Shared() or httpclient.New(transport)"},
	forbid.Rule{Kind: forbid.Var, Pkg: "net/http", Names: []string{"DefaultClient"},
		Msg: "http.%s has no pooled-transport tuning and dodges the testbed router; use httpclient.Shared()"},
	forbid.Rule{Kind: forbid.Call, Pkg: "net/http", Names: []string{"Get", "Head", "Post", "PostForm"},
		Msg: "http.%s uses http.DefaultClient under the hood; call the method on httpclient.Shared() or an injected client"},
)

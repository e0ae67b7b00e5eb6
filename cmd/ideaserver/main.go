// Command ideaserver serves an idea cluster over the network: it boots
// a cluster (storage in process memory, or under -data-dir), optionally
// runs a bootstrap SQL++ script, and speaks the ideaserver wire protocol
// on TCP (TLS with -tls-cert/-tls-key). Any Go program can then reach
// the engine through database/sql:
//
//	import _ "github.com/ideadb/idea/driver"
//	db, err := sql.Open("idea", "127.0.0.1:7654")
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// lets in-flight statements finish (bounded by -drain-timeout), then
// closes the cluster so every acknowledged write is committed before
// the process exits.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ideadb/idea"
	"github.com/ideadb/idea/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":7654", "TCP listen address (host:port; port 0 picks a free port)")
		nodes        = flag.Int("nodes", 1, "simulated cluster size")
		dataDir      = flag.String("data-dir", "", "storage directory (empty: the files live in process memory)")
		blockCacheMB = flag.Int64("block-cache-mb", 0, "block cache budget in MiB, decoded blocks plus the on-disk frames kept beside them (0: default 64, negative: no block stays resident)")
		initScript   = flag.String("init", "", "SQL++ script file executed at boot (DDL, feeds)")
		tlsCert      = flag.String("tls-cert", "", "TLS certificate file (with -tls-key enables TLS)")
		tlsKey       = flag.String("tls-key", "", "TLS private key file")
		authTokens   = flag.String("auth-tokens", "", "comma-separated auth tokens; empty disables auth")
		maxSessions  = flag.Int("max-sessions", 256, "concurrent session limit (a session that has sent rows keeps a 32 KiB row-batch encoder)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close sessions idle this long")
		batchRows    = flag.Int("batch-rows", 256, "result rows per streamed batch frame")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	)
	flag.Parse()
	log.SetPrefix("ideaserver: ")
	log.SetFlags(log.LstdFlags)

	cacheBytes := *blockCacheMB << 20
	if *blockCacheMB < 0 {
		cacheBytes = -1
	}
	cluster, err := idea.NewCluster(idea.Config{Nodes: *nodes, DataDir: *dataDir, BlockCacheBytes: cacheBytes})
	if err != nil {
		log.Fatalf("boot cluster: %v", err)
	}
	if *initScript != "" {
		script, err := os.ReadFile(*initScript)
		if err != nil {
			log.Fatalf("read init script: %v", err)
		}
		if _, err := cluster.Execute(context.Background(), string(script)); err != nil {
			log.Fatalf("init script: %v", err)
		}
		log.Printf("ran init script %s", *initScript)
	}

	var tokens []string
	if *authTokens != "" {
		tokens = strings.Split(*authTokens, ",")
	}
	srv := server.New(cluster, server.Config{
		AuthTokens:  tokens,
		MaxSessions: *maxSessions,
		IdleTimeout: *idleTimeout,
		BatchRows:   *batchRows,
		Logf:        log.Printf,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *tlsCert != "" || *tlsKey != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			log.Fatalf("load TLS key pair: %v", err)
		}
		l = tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}})
	}
	// The one line scripts parse (CI boots on port 0 and scrapes the
	// port): keep the format stable.
	fmt.Printf("listening on %s\n", l.Addr())
	os.Stdout.Sync()
	log.Printf("serving (nodes=%d durable=%v tls=%v auth=%v)",
		*nodes, *dataDir != "", *tlsCert != "", len(tokens) > 0)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("received %v, draining", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain forced after %v: %v", *drainTimeout, err)
	}
	if err := cluster.Close(); err != nil {
		log.Fatalf("close cluster: %v", err)
	}
	log.Printf("clean shutdown")
}

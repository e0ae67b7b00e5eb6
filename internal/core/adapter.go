// Package core implements the paper's contribution: the decoupled
// ingestion framework. A feed is three cooperating layers —
//
//   - a long-running *intake job* (adapters receive raw bytes and push
//     frames of them round-robin straight into the passive intake
//     partition holders, one per node, whose rings are its only queue),
//   - a short-lived but repeatedly-invoked *computing job* (per batch:
//     collect from the local intake holder, parse, evaluate the attached
//     UDF against freshly-prepared state, forward to the local storage
//     holder), and
//   - a long-running *storage job* (active storage partition holders →
//     the exchange that forwards each frame to the partition owning its
//     primary keys → LSM storage partitions, with group-committed log
//     writes),
//
// orchestrated by the Active Feed Manager on the cluster controller.
// The package also implements the old coupled ("static") pipeline as the
// paper's baseline, including its limitations: stateful SQL++ UDFs are
// rejected, and native-UDF state goes stale.
package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Adapter obtains/receives data from an external source as raw bytes,
// one record per emit call. Run returns when the source is exhausted or
// ctx is canceled; emit blocks for backpressure.
//
// Emitted bytes are copied before emit returns (into a pooled per-frame
// line arena: one memcpy, no per-record allocation), so an adapter may
// reuse its read buffer across emits.
type Adapter interface {
	Run(ctx context.Context, emit func(raw []byte) error) error
}

// ResumableAdapter is an Adapter whose source has a replayable,
// monotonic offset space — the contract behind at-least-once delivery.
// Offsets are dense and start at 1 (0 means "from the beginning").
// RunFrom emits every record with offset > from, in order, tagging each
// emit with its offset; the feed records (feed, adapter, offset)
// checkpoints through the partition WAL and restarts the adapter from
// the last checkpoint after a crash or failover. Redelivery of records
// in (checkpoint, lastEmitted] is expected and absorbed by last-wins
// upsert.
type ResumableAdapter interface {
	Adapter
	RunFrom(ctx context.Context, from uint64, emit func(off uint64, raw []byte) error) error
}

// GeneratorAdapter replays pre-serialized records — the synthetic
// firehose used by benchmarks (substituting for the paper's Twitter
// feed; see docs/ARCHITECTURE.md). It is resumable: record i has
// offset i+1.
type GeneratorAdapter struct {
	// Records are emitted in order.
	Records [][]byte
}

// Run implements Adapter.
func (g *GeneratorAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	return g.RunFrom(ctx, 0, func(_ uint64, raw []byte) error { return emit(raw) })
}

// RunFrom implements ResumableAdapter.
func (g *GeneratorAdapter) RunFrom(ctx context.Context, from uint64, emit func(uint64, []byte) error) error {
	for i := int(from); i < len(g.Records); i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := emit(uint64(i)+1, g.Records[i]); err != nil {
			return err
		}
	}
	return nil
}

// ChannelAdapter emits records pushed into a channel (examples and
// update clients). Close the channel to end the feed.
type ChannelAdapter struct {
	C <-chan []byte
}

// Run implements Adapter.
func (a *ChannelAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	for {
		select {
		case rec, ok := <-a.C:
			if !ok {
				return nil
			}
			if err := emit(rec); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// SocketAdapter listens on a TCP socket and emits newline-delimited
// records — the paper's socket_adapter. It serves any number of
// sequential or concurrent connections. Run ends once the listener is
// closed — by Stop, or when ctx ends — and every open connection has
// ended. Connections are read to EOF, unless ctx ends hard: any cause
// but the feed's Stop cuts them, so a failed feed waits for no client.
type SocketAdapter struct {
	// Addr is the listen address, e.g. "127.0.0.1:10001".
	Addr string

	mu sync.Mutex
	ln net.Listener
}

// Run implements Adapter.
func (a *SocketAdapter) Run(ctx context.Context, emit func([]byte) error) error {
	ln, err := net.Listen("tcp", a.Addr)
	if err != nil {
		return fmt.Errorf("core: socket adapter: %w", err)
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	defer context.AfterFunc(ctx, a.Stop)()

	var wg sync.WaitGroup
	var emitMu sync.Mutex // serialize emits across connections
	var connErr error
	var errOnce sync.Once
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			defer context.AfterFunc(ctx, func() {
				if !errors.Is(context.Cause(ctx), errStopped) {
					conn.Close()
				}
			})()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) == 0 {
					continue
				}
				emitMu.Lock()
				err := emit(line)
				emitMu.Unlock()
				if err != nil {
					errOnce.Do(func() { connErr = err })
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil // clean stop
	}
	return connErr
}

// Stop closes the listener, ending Run once in-flight connections
// finish.
func (a *SocketAdapter) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln != nil {
		a.ln.Close()
		a.ln = nil
	}
}

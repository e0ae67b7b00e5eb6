package idea

import (
	"container/list"
	"sync"

	"github.com/ideadb/idea/internal/sqlpp"
)

// The statement cache's bounds. They are fixed: a text that repeats is
// a prepared statement in all but name, and a few hundred of them cover
// any client this engine serves; a text longer than the bypass size is
// a script or a bulk literal INSERT, which is parsed for its one call
// and never retained.
const (
	stmtCacheEntries = 256
	stmtCacheMaxText = 4 << 10
)

// parsedText is one statement text parsed: its statements and the
// $parameters they reference, in first-reference order (the slots
// bindArgs fills). Parsing reads no catalog and nothing downstream
// writes the tree, so an entry is valid for as long as it is cached and
// may be shared by concurrent calls; what a call does with it — plan,
// pin snapshots, bind — happens per call.
type parsedText struct {
	stmts  []sqlpp.Statement
	params []string
}

// stmtCache is a cluster's bounded LRU of parsed statement texts, keyed
// by the text alone. Query and Execute share it.
type stmtCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // value: *cacheEntry
	lru     list.List                // front = most recently used
	stats   StatementCacheStats
}

type cacheEntry struct {
	text   string
	parsed *parsedText
}

// StatementCacheStats counts a cluster's statement cache traffic: a hit
// reuses a parsed text, a miss parses one (an oversize text or a parse
// error included), and an eviction drops the least recently used text
// to make room. The fields carry their report's name, as
// lsm.CacheStats's do, so a snapshot embedding it reads them flat.
type StatementCacheStats struct {
	StatementCacheHits, StatementCacheMisses, StatementCacheEvictions int64
}

// StatementCacheStats reports the cluster's statement cache counters.
func (c *Cluster) StatementCacheStats() StatementCacheStats {
	c.stmts.mu.Lock()
	defer c.stmts.mu.Unlock()
	return c.stmts.stats
}

// parse returns text parsed, from the cache when it holds it. A parse
// error is returned as is and caches nothing.
func (sc *stmtCache) parse(text string) (*parsedText, error) {
	sc.mu.Lock()
	if el, ok := sc.entries[text]; ok {
		sc.lru.MoveToFront(el)
		sc.stats.StatementCacheHits++
		sc.mu.Unlock()
		return el.Value.(*cacheEntry).parsed, nil
	}
	sc.stats.StatementCacheMisses++
	sc.mu.Unlock()

	stmts, err := sqlpp.Parse(text)
	if err != nil {
		return nil, err
	}
	p := &parsedText{stmts: stmts, params: sqlpp.CollectParams(stmts)}
	if len(text) > stmtCacheMaxText {
		return p, nil
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.entries[text]; ok {
		// A concurrent miss on the same text got here first.
		sc.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).parsed, nil
	}
	if sc.entries == nil {
		sc.entries = make(map[string]*list.Element)
	}
	if sc.lru.Len() >= stmtCacheEntries {
		oldest := sc.lru.Back()
		sc.lru.Remove(oldest)
		delete(sc.entries, oldest.Value.(*cacheEntry).text)
		sc.stats.StatementCacheEvictions++
	}
	sc.entries[text] = sc.lru.PushFront(&cacheEntry{text: text, parsed: p})
	return p, nil
}

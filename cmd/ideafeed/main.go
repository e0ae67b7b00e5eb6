// Command ideafeed is the end-to-end demo: it boots a simulated cluster,
// declares the paper's tweet-safety-check schema, opens a socket feed
// with the enrichment UDF attached, and ingests newline-delimited JSON
// until interrupted. On shutdown it prints feed statistics and a sample
// analytical query over the enriched data.
//
// Usage:
//
//	ideafeed -listen 127.0.0.1:10001 -nodes 4 &
//	ideagen -n 100000 | nc 127.0.0.1 10001
//	kill -INT %1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/ideadb/idea"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:10001", "socket feed listen address")
		nodes  = flag.Int("nodes", 4, "simulated cluster size")
	)
	flag.Parse()
	if err := run(*listen, *nodes); err != nil {
		fmt.Fprintf(os.Stderr, "ideafeed: %v\n", err)
		os.Exit(1)
	}
}

func run(listen string, nodes int) error {
	ctx := context.Background()
	c, err := idea.NewCluster(idea.Config{Nodes: nodes})
	if err != nil {
		return err
	}
	_, err = c.Execute(ctx, fmt.Sprintf(`
		CREATE TYPE TweetType AS OPEN { id: int64, text: string };
		CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
		CREATE TYPE WordType AS OPEN { id: int64, country: string, word: string };
		CREATE DATASET SensitiveWords(WordType) PRIMARY KEY id;
		INSERT INTO SensitiveWords ([
			{"id": 1, "country": "C000000", "word": "bomb"},
			{"id": 2, "country": "C000001", "word": "attack"},
			{"id": 3, "country": "C000002", "word": "threat"}
		]);
		CREATE FUNCTION tweetSafetyCheck(tweet) {
			LET safety_check_flag = CASE
				EXISTS(SELECT s FROM SensitiveWords s
					WHERE tweet.country = s.country AND contains(tweet.text, s.word))
				WHEN true THEN "Red" ELSE "Green" END
			SELECT tweet.*, safety_check_flag
		};
		CREATE FEED TweetFeed WITH {
			"adapter-name": "socket_adapter",
			"type-name": "TweetType",
			"format": "JSON",
			"sockets": "%s"
		};
		CONNECT FEED TweetFeed TO DATASET EnrichedTweets APPLY FUNCTION tweetSafetyCheck;
	`, listen))
	if err != nil {
		return err
	}
	results, err := c.Execute(ctx, `START FEED TweetFeed;`)
	if err != nil {
		return err
	}
	feed := results.Feeds()[0]
	fmt.Printf("ideafeed: %d-node cluster listening on %s (newline-delimited JSON tweets)\n", nodes, listen)
	fmt.Println("ideafeed: press Ctrl-C to stop the feed and print results")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("\nideafeed: stopping feed and draining...")
	if err := feed.Stop(); err != nil {
		return err
	}
	// Final counters stay readable after the stop.
	stats, err := feed.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("ideafeed: ingested=%d stored=%d computing-jobs=%d mean-refresh=%v\n",
		stats.Ingested, stats.Stored, stats.Invocations, stats.MeanRefresh)
	fmt.Printf("ideafeed: enrichment-state builds=%d reuses=%d structures-built=%d structures-patched=%d\n",
		stats.StateBuilds, stats.StateReuses, stats.AccessBuilds, stats.AccessPatches)
	fmt.Printf("ideafeed: spilled=%d frames (%d records) shed=%d frames (%d records) sampled-out=%d frames (%d records)\n",
		stats.SpilledFrames, stats.SpilledRecords, stats.ShedFrames, stats.ShedRecords,
		stats.SampledFrames, stats.SampledRecords)
	fmt.Printf("ideafeed: last-checkpoint=%d resumptions=%d\n",
		stats.LastCheckpoint, stats.Resumptions)

	rows, err := c.Query(ctx, `
		SELECT e.safety_check_flag AS flag, count(*) AS num
		FROM EnrichedTweets e
		GROUP BY e.safety_check_flag
		ORDER BY e.safety_check_flag`)
	if err != nil {
		return err
	}
	fmt.Println("ideafeed: enriched tweet flags:")
	for row, err := range rows.All() {
		if err != nil {
			return err
		}
		fmt.Printf("  %-6s %d\n", row.Field("flag").Str(), row.Field("num").Int())
	}
	return nil
}

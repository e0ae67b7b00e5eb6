package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/frame"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenFile holds the canned conversation at the current Version.
const goldenFile = "conversation-v2.golden"

// The golden test pins the wire format byte for byte, the same way the
// storage layer pins its WAL and run files: a legitimate format change
// must bump Version AND regenerate the fixture with -update; an
// accidental drift fails here before it can strand deployed clients.

// goldenConversation frames one canned session covering every frame
// type in both directions.
func goldenConversation() []byte {
	var b []byte
	b = AppendFrame(b, TypeHello, AppendHello(nil, Hello{Version: Version, Token: "s3cret"}))
	b = AppendFrame(b, TypeWelcome, AppendWelcome(nil, Welcome{Version: Version, Server: "ideaserver"}))
	b = AppendFrame(b, TypePing, nil)
	b = AppendFrame(b, TypePong, nil)
	b = AppendFrame(b, TypeExecute, AppendRequest(nil, Request{
		Text: `CREATE DATASET Tweets (id); INSERT INTO Tweets ([{"id": 1}]);`,
	}))
	b = AppendFrame(b, TypeExecResult, AppendExecResults(nil, []StmtResult{
		{Kind: "CREATE_DATASET", Pos: 0},
		{Kind: "INSERT", Pos: 28, RowsAffected: 1},
		{Kind: "START_FEED", Pos: 61, Feed: "TweetFeed"},
	}))
	b = AppendFrame(b, TypeQuery, AppendRequest(nil, Request{
		Text: `SELECT VALUE t FROM Tweets t WHERE t.score > $1 AND t.lang = $lang`,
		Params: []Param{
			{Name: "1", Value: adm.Double(4.5)},
			{Name: "lang", Value: adm.String("en")},
		},
	}))
	b = AppendFrame(b, TypeHeader, AppendHeader(nil, Header{Columns: []string{"value"}}))
	// Two batches: four rows whose field names and tags repeat, which
	// the codec lz-codes, and one short string, which it stores.
	enc := new(frame.Encoder)
	b = AppendRowBatchFrame(b, enc, AppendRowBatch(nil, []adm.Value{
		adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(1),
			"name", adm.String("alice"),
			"score", adm.Double(3.5),
			"tags", adm.Array([]adm.Value{adm.String("a"), adm.String("b")}),
		)),
		adm.ObjectValue(adm.ObjectFromPairs(
			"id", adm.Int(2),
			"loc", adm.Point(7.5, -8.25),
			"active", adm.Bool(true),
			"at", adm.DateTimeMillis(1700000000000),
		)),
		adm.Null(),
		adm.String("plain"),
	}))
	b = AppendRowBatchFrame(b, enc, AppendRowBatch(nil, []adm.Value{adm.String("last")}))
	b = AppendFrame(b, TypeCloseRows, nil)
	b = AppendFrame(b, TypeTrailer, AppendTrailer(nil, Trailer{Rows: 5}))
	b = AppendFrame(b, TypeError, AppendError(nil, ErrorMsg{
		Code:    CodeUnknownDataset,
		Message: "idea: unknown dataset",
		HasStmt: true, Index: 1, Pos: 28, Snippet: "INSERT INTO Nope",
	}))
	b = AppendFrame(b, TypeStats, nil)
	b = AppendFrame(b, TypeStatsReply, AppendValue(nil, adm.ObjectValue(adm.ObjectFromPairs(
		"server", adm.String("ideaserver"),
		"rows_sent", adm.Int(4),
	))))
	return b
}

// TestGoldenConversation pins a whole canned session's frames.
func TestGoldenConversation(t *testing.T) {
	got := goldenConversation()
	path := filepath.Join("testdata", goldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire format drifted from golden (%d vs %d bytes).\nIf the change is intentional, bump wire.Version and regenerate with -update.", len(got), len(want))
	}

	// The golden bytes must also read back: the decode side is pinned
	// too. Walk every frame and re-parse each body.
	rc := connOver(want)
	var frames, rows int
	var codecs, raw []byte
	var batches []int
	for {
		typ, body, err := rc.ReadFrame(MaxFrame)
		if err != nil {
			break
		}
		frames++
		switch typ {
		case TypeHello:
			h, err := ParseHello(body)
			if err != nil || h.Version != Version || h.Token != "s3cret" {
				t.Fatalf("hello: %+v, %v", h, err)
			}
		case TypeWelcome:
			w, err := ParseWelcome(body)
			if err != nil || w.Server != "ideaserver" {
				t.Fatalf("welcome: %+v, %v", w, err)
			}
		case TypeQuery, TypeExecute:
			if _, err := ParseRequest(body); err != nil {
				t.Fatalf("request: %v", err)
			}
		case TypeHeader:
			h, err := ParseHeader(body)
			if err != nil || len(h.Columns) != 1 {
				t.Fatalf("header: %+v, %v", h, err)
			}
		case TypeRowBatch:
			codecs = append(codecs, body[0])
			if raw, err = DecodeRowBatch(raw, body); err != nil {
				t.Fatalf("batch: %v", err)
			}
			br, err := NewBatchReader(raw)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			batches = append(batches, br.Len())
			for {
				_, ok, err := br.Next()
				if err != nil {
					t.Fatalf("batch row: %v", err)
				}
				if !ok {
					break
				}
				rows++
			}
		case TypeTrailer:
			tr, err := ParseTrailer(body)
			if err != nil || tr.Rows != 5 {
				t.Fatalf("trailer: %+v, %v", tr, err)
			}
		case TypeError:
			e, err := ParseError(body)
			if err != nil || e.Code != CodeUnknownDataset || !e.HasStmt {
				t.Fatalf("error frame: %+v, %v", e, err)
			}
		case TypeExecResult:
			res, err := ParseExecResults(body)
			if err != nil || len(res) != 3 || res[2].Feed != "TweetFeed" {
				t.Fatalf("exec results: %+v, %v", res, err)
			}
		case TypeStatsReply:
			v, err := ParseValue(body)
			if err != nil || v.Field("rows_sent").IntVal() != 4 {
				t.Fatalf("stats reply: %v, %v", v, err)
			}
		case TypePing, TypePong, TypeCloseRows, TypeStats:
			if len(body) != 0 {
				t.Fatalf("%v frame with body", typ)
			}
		default:
			t.Fatalf("unknown frame %v in golden", typ)
		}
	}
	if frames != 15 || rows != 5 || !slices.Equal(batches, []int{4, 1}) {
		t.Fatalf("golden holds %d frames and batches of %v rows (%d read), want 15 and [4 1]", frames, batches, rows)
	}
	if !bytes.Equal(codecs, []byte{frame.CodecLZ, frame.CodecStored}) {
		t.Fatalf("row batch codecs %v, want one lz and one stored", codecs)
	}
}

// TestGoldenVersionByte pins the version constants: bumping one without
// regenerating the fixture (or vice versa) fails loudly.
func TestGoldenVersionByte(t *testing.T) {
	if Version != 2 || adm.BinaryVersion != 1 {
		t.Fatalf("format versions changed (wire=%d adm=%d): regenerate the golden file with -update and update this test",
			Version, adm.BinaryVersion)
	}
	data, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Skip("golden file not generated yet")
	}
	// Frame 1 is the Hello: header, type byte, then magic + version.
	rest := data[frameHeaderSize:]
	if Type(rest[0]) != TypeHello || string(rest[1:1+len(Magic)]) != Magic || rest[1+len(Magic)] != Version {
		t.Fatal("golden Hello frame does not carry the current magic+version")
	}
}

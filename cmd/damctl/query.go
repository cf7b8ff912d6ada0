package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/rangequery"
)

// The query subcommand answers analyst queries — rectangle totals and
// top-k heavy-hitter cells — either live against a collector or fleet
// supervisor (GET /v1/query) or locally from a merged aggregate file.
// Both routes run the same answer arithmetic, so the local answer
// (collector.AnswerQueryFromAggregate) is the byte-identical reference
// for the served one: CI diffs the two.

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	url := fs.String("url", "", "collector or supervisor base URL, e.g. http://127.0.0.1:8080")
	authToken := fs.String("auth-token", "", "bearer token for a service running with --auth-token (with --url)")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle to trust for an https:// --url")
	fromAgg := fs.String("from-aggregate", "", "answer locally from a merged aggregate file instead of a service")
	rangeStr := fs.String("range", "", "range query: x0,y0,x1,y1 (inclusive cell coordinates)")
	topk := fs.Int("topk", 0, "top-k query: the k heaviest estimate cells")
	asJSON := fs.Bool("json", false, "print the full query response JSON instead of the bare answer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*url == "") == (*fromAgg == "") {
		return fmt.Errorf("need exactly one of --url or --from-aggregate")
	}
	if (*rangeStr == "") == (*topk == 0) {
		return fmt.Errorf("need exactly one of --range or --topk")
	}

	var req collector.QueryRequest
	if *rangeStr != "" {
		q, err := parseRangeFlag(*rangeStr)
		if err != nil {
			return err
		}
		req = collector.QueryRequest{Type: collector.QueryTypeRange, Range: q}
	} else {
		if *topk < 1 {
			return fmt.Errorf("--topk must be >= 1")
		}
		req = collector.QueryRequest{Type: collector.QueryTypeTopK, K: *topk}
	}

	var resp *collector.QueryResponse
	var err error
	if *url != "" {
		client := dpspatial.NewCollectorClient(*url)
		client.AuthToken = *authToken
		var httpc *http.Client
		httpc, err = clientForCA(*tlsCA)
		if err != nil {
			return err
		}
		client.HTTPClient = httpc
		resp, err = client.Query(context.Background(), req)
	} else {
		var hdr *collector.Pipeline
		var agg *dpspatial.Aggregate
		hdr, agg, err = consumeInput(*fromAgg)
		if err != nil {
			return fmt.Errorf("%s: %w", *fromAgg, err)
		}
		var rm dpspatial.ReportingMechanism
		rm, err = dpspatial.NewMechanismFromPipeline(hdr)
		if err != nil {
			return err
		}
		resp, err = collector.AnswerQueryFromAggregate(rm, agg, req)
	}
	if err != nil {
		return err
	}

	if *asJSON {
		out, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	switch resp.Type {
	case collector.QueryTypeRange:
		fmt.Printf("%g\n", resp.Range.Value)
	case collector.QueryTypeTopK:
		fmt.Println("cell_x,cell_y,mass")
		for _, c := range resp.TopK.Cells {
			fmt.Printf("%d,%d,%g\n", c.X, c.Y, c.Mass)
		}
	}
	return nil
}

// parseRangeFlag decodes the x0,y0,x1,y1 rectangle syntax.
func parseRangeFlag(s string) (rangequery.Query, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return rangequery.Query{}, fmt.Errorf("--range needs x0,y0,x1,y1, got %q", s)
	}
	vals := make([]int, 4)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return rangequery.Query{}, fmt.Errorf("--range: %v", err)
		}
		vals[i] = n
	}
	return rangequery.Query{X0: vals[0], Y0: vals[1], X1: vals[2], Y1: vals[3]}, nil
}

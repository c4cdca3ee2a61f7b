package data

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/relation"
)

// TestStreamMatchesMaterialized pins the generators, the paper's §6 inputs.
// Row i of a dataset's stream is byte-for-byte the CSV row its relation's
// tuple i renders to (one row source feeds both faces), and both faces hash
// to the values captured before the two were folded into one source —
// changing what a generator draws should be a conscious act that edits a pin.
func TestStreamMatchesMaterialized(t *testing.T) {
	const n, seed = 3000, 7
	cases := []struct {
		name         string
		d            int
		p            float64
		rel          *relation.Relation
		relSHA, rows string
	}{
		{"binomial", 5, 0.3, GenBinomial(n, 5, 0.3, seed),
			"af5b67e1c86795f9e0e0b397f59b62451f5e246fb2c490188c11c8972e31f211", "970be1d46a22189453ca69d21239be419b921e28c3485c8517171366462b0d06"},
		{"uniform", 3, 0, Uniform(n, 3, 1<<30, seed),
			"61ad4e0ebd46105cd0e8fd8a3e88b5601688fac93e7761527549de14a42e6af9", "3070b3119b66102b08ef9c2f280477f3f26f6c8ee36e8f669f956d0b45c6cbb5"},
		{"zipf", 4, 0, GenZipf(n, seed),
			"2a5e6d7d7cbf7e9d6a0a57a56a5888da5cba5aa2e76051ef32d182bf9735165d", "cb67e6a193401cafe9ceba3e725ccdeea3bb93d52944bdf658e68f2a99dd7c61"},
		{"wiki", 4, 0, WikiTraffic(n, seed),
			"b03eca7078bc1ae7c0f5c23cc80c30012c508a85eb0cdadafe2d3c394b9f1a95", "bda40280fecc45fa3ab2a960f3acd197ba9a481bf637378d1406ab9c514b0528"},
		{"usagov", 15, 0, USAGov(n, seed),
			"0201ae355ecdc6c7b9244dbe4b579398f809f894f3da5c576f2ca4911f07e6c0", "886a9c9da93783c3e7d18613c76146db1320f6cebf12683bba3a25f0a1f53749"},
		{"retail", 3, 0, Retail(n, seed),
			"3298a0c57eb0752b762ff6cd3cf6560863ff785feb9c6f48af38a10bda8a1fd1", "f8db0ca8e89c9565a77dd083885c31e83e95a6129011b530562905a1eb99f3fd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := StreamByName(tc.name, n, tc.d, tc.p, seed)
			if err != nil {
				t.Fatal(err)
			}
			d := tc.rel.D()
			wantHeader := append(append([]string(nil), tc.rel.Schema.DimNames...), tc.rel.Schema.MeasureName)
			if strings.Join(s.Header, ",") != strings.Join(wantHeader, ",") {
				t.Fatalf("header = %q, want %q", s.Header, wantHeader)
			}
			relHash, rowHash := sha256.New(), sha256.New()
			fmt.Fprintf(relHash, "%q %q dict=%t\n", tc.rel.Schema.DimNames, tc.rel.Schema.MeasureName, tc.rel.Dict != nil)
			fmt.Fprintln(rowHash, strings.Join(s.Header, ","))
			row := make([]string, d+1)
			for i := 0; i < n; i++ {
				if !s.Next(row) {
					t.Fatalf("stream exhausted at row %d of %d", i, n)
				}
				tup := tc.rel.Tuples[i]
				for j := 0; j < d; j++ {
					if want := tc.rel.DimString(j, tup.Dims[j]); row[j] != want {
						t.Fatalf("row %d dim %d: streamed %q, materialized %q", i, j, row[j], want)
					}
				}
				if want := strconv.FormatInt(tup.Measure, 10); row[d] != want {
					t.Fatalf("row %d measure: streamed %q, materialized %q", i, row[d], want)
				}
				fmt.Fprintln(relHash, tup.Dims, tup.Measure)
				fmt.Fprintln(rowHash, strings.Join(row, ","))
			}
			if s.Next(row) {
				t.Fatal("stream yields more than n rows")
			}
			if tc.rel.N() != n {
				t.Fatalf("relation has %d tuples, want %d", tc.rel.N(), n)
			}
			if got := fmt.Sprintf("%x", relHash.Sum(nil)); got != tc.relSHA {
				t.Errorf("materialised relation hashes to %s, pinned %s", got, tc.relSHA)
			}
			if got := fmt.Sprintf("%x", rowHash.Sum(nil)); got != tc.rows {
				t.Errorf("streamed rows hash to %s, pinned %s", got, tc.rows)
			}
		})
	}
}

// TestStreamByNameMatchesGendataConventions checks the name table resolves
// with cmd/gendata's parameter conventions and rejects unknown datasets.
func TestStreamByNameMatchesGendataConventions(t *testing.T) {
	s, err := StreamByName("binomial", 10, 6, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Header) != 7 {
		t.Errorf("binomial d=6: header has %d fields, want 7", len(s.Header))
	}
	if _, err := StreamByName("nope", 10, 4, 0.1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

package commit

import (
	"fmt"
	"testing"
)

// The receipt plane at avccserve's default deployment — a 360×120 matrix
// over an avcc (12,9) code, one shard group — for a lone request (batch 1)
// and a full batch (32). The decode consumes 9 of the 12 workers, so the
// round lists 9, three of them parity. BenchmarkIssue is what
// commit.issue_ms measures on a served round, BenchmarkVerify what
// commit.audit_ms measures (the service's audit is a full Verify).

func servedRound(batch int) (*Issuer, Round) {
	is, rd := honestMatVec(int64(batch), 360, 120, 9, 12, batch)
	rd.Workers = rd.Workers[3:]
	return is, rd
}

func BenchmarkIssue(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			is, rd := servedRound(batch)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := is.Issue(rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			is, rd := servedRound(batch)
			rec, err := is.Issue(rd)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := rec.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package commit

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// The receipt plane at avccserve's default deployment — a 360×120 matrix
// over an avcc (12,9) code, one shard group — for a lone request (batch 1)
// and a full batch (32). The decode consumes 9 of the 12 workers, so the
// round lists 9, three of them parity. BenchmarkCommitMatrix is what
// commit.matrix_ms measures at set-up, BenchmarkIssue what commit.issue_ms
// measures on a served round, BenchmarkVerify what commit.audit_ms measures
// (the service's audit is a full Verify).

func servedRound(batch int) (*Issuer, Round) {
	is, rd := honestMatVec(int64(batch), 360, 120, 9, 12, batch)
	rd.Workers = rd.Workers[3:]
	return is, rd
}

func BenchmarkCommitMatrix(b *testing.B) {
	f := field.Default()
	x := fieldmat.Rand(f, rand.New(rand.NewSource(5)), 360, 120)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CommitMatrix(f, x); err != nil {
			b.Fatal(err)
		}
	}
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

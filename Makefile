# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check vuln build test race vet cover loc bench bench-full perf-smoke experiments examples clean

all: check

# The default verification gate: static checks plus the full test suite
# under the race detector, and a vulnerability scan when the scanner is
# installed.
check: vuln
	$(GO) vet ./...
	$(GO) test -race ./...

# govulncheck when available (CI installs it; locally it is optional:
# `go install golang.org/x/vuln/cmd/govulncheck@latest`).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

cover:
	$(GO) test -cover ./...

# The size figure ROADMAP quotes: non-test Go lines per package and in total,
# outside ledger/ (its own module) and the benchmark's build cache.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './ledger/*' ! -path './.bench_build/*' -print0 \
	  | xargs -0 wc -l \
	  | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	      END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The repo benchmark (BENCHMARK.json): one traced 8-second run of the
# library workload, end-to-end metrics plus the per-layer ladder as one JSON
# line. ledger/README.md names every metric and the other workloads.
bench:
	bash ledger/run.sh --workload lib-episodes --seed 1 --seconds 8 --trace 1

# Full-scale benchmark pass: reproduces the EXPERIMENTS.md workloads.
bench-full:
	REPRO_BENCH_SCALE=1 $(GO) test -bench=. -benchmem -benchtime=1x -timeout=2h .

# In-process daemon + open-loop load generator with latency/success gates:
# the CI perf smoke. Tune the gates there, not here.
perf-smoke:
	$(GO) run ./cmd/loadgen -self -n 20000 -rps 150 -duration 15s -batch 8 \
	  -max-p99-ms 500 -min-success 0.99

# Regenerate every experiment table at full scale (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/smallworld -e all -scale 1 -seed 1

# Run each example and diff its stdout against the committed
# examples/<name>/output.txt; every example is deterministic.
examples:
	@for e in quickstart milgram internet trajectory; do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e | diff -u examples/$$e/output.txt - || exit 1; \
	done

clean:
	$(GO) clean ./...

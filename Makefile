# Verification targets for the iroram reproduction.
#
#   make build       compile everything
#   make fmt         gate: every Go file is gofmt-clean
#   make vet         static analysis
#   make test        unit + experiment tests (tier-1), including the quick
#                    goldens (the fig10 table, and every figure's table and
#                    JSONL artifacts)
#   make race        full tree under the race detector (the parallel
#                    experiment engine must stay race-clean)
#   make alloccheck  gate: the steady-state hot paths (path access, evict,
#                    tree walk, tree-top find, IR-Stash lookup through its
#                    MD5 set index, LLC access, DWB scan, histogram observe,
#                    fully-traced flight access) must not allocate (the
#                    *ZeroAllocs tests)
#   make docscheck   gate: exported facade/metrics identifiers must carry doc
#                    comments, and docs/METRICS.md must match the metrics
#                    registry's self-description both ways
#   make check       all of the above, then vet and test the perfbench/
#                    benchmark module, which the root build does not compile
#   make bench       every go-test benchmark: one per paper figure plus the
#                    per-package hot-path microbenchmarks
#   make flightcheck trace a quick fig10 run, validate it with flightstat,
#                    and diff the trace bytes across -jobs 1 and -jobs 4
#   make fuzz        fuzz the trace readers (Read, ReadText) for 10 s each
#                    from the seed corpora in internal/trace/testdata/fuzz/,
#                    which plain `go test` replays; not part of make check
#   make profile     CPU+heap profile of a quick fig10 regeneration
#   make profile-top profile, then print the top 25 flat-cost functions
#
# The performance benchmark is perfbench/ (see perfbench/README.md).

GO ?= go

.PHONY: build fmt vet test race alloccheck docscheck check bench flightcheck fuzz profile profile-top

build:
	$(GO) build ./...

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

alloccheck:
	$(GO) test -run ZeroAllocs ./...

docscheck:
	$(GO) run ./cmd/docscheck

check: build fmt vet test race alloccheck docscheck
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

flightcheck:
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false -jobs 4 \
		-flight flight-j4 -flight-sample 8 > /dev/null
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false -jobs 1 \
		-dedup=false -overlap=false -flight flight-j1 -flight-sample 8 > /dev/null
	diff -r flight-j4 flight-j1
	$(GO) run ./cmd/flightstat flight-j4/fig10.trace.json
	rm -r flight-j4 flight-j1

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 10s ./internal/trace

profile:
	$(GO) run ./cmd/experiments -fig fig10 -quick -progress=false \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -sample_index=alloc_space -top mem.pprof"

profile-top: profile
	$(GO) tool pprof -top -nodecount=25 cpu.pprof

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz check check-db crash crash-wal crash-concurrent clean bench-harness bench-compare fig4 fig10 trace-smoke serve-torture serve-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One short coverage-guided pass per fuzz target; regressions in the
# committed corpus under testdata/fuzz fail `make test` already.
fuzz:
	$(GO) test -fuzz=FuzzEncFromBytes -fuzztime=$(FUZZTIME) ./internal/enc/
	$(GO) test -run=^$$ -fuzz=FuzzWriterRoundTrip -fuzztime=$(FUZZTIME) ./internal/enc/
	$(GO) test -fuzz=FuzzStorageRead -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -fuzz=FuzzSalvageOpen -fuzztime=$(FUZZTIME) ./internal/storage/
	$(GO) test -fuzz=FuzzSQLParse -fuzztime=$(FUZZTIME) ./internal/sqlparse/
	$(GO) test -fuzz=FuzzSpillRead -fuzztime=$(FUZZTIME) ./internal/spill/
	$(GO) test -fuzz=FuzzWALRead -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz=FuzzWALReadConcurrent -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=^$$ -fuzz=FuzzConjunctKernel -fuzztime=$(FUZZTIME) ./internal/exec/
	$(GO) test -run=^$$ -fuzz=FuzzAppendFormat -fuzztime=$(FUZZTIME) ./internal/types/
	$(GO) test -run=^$$ -fuzz=FuzzImportCSV -fuzztime=$(FUZZTIME) .

# Crash-consistency sweep: kill a save at every injectable point and
# require the on-disk file to be exactly the old or the new image.
CRASHSEEDS ?= 64
crash:
	$(GO) test -race -run 'TestCrashConsistency|TestBitFlipAtRestDetected' ./internal/storage/ -crashseeds $(CRASHSEEDS)

# Write-path crash sweep: kill transaction commits and delta merges at
# every injectable I/O operation and require recovery to land exactly on
# an "after j committed transactions" state (commits) or the pre-merge
# state (merges).
WALCRASHSEEDS ?= 128
crash-wal:
	$(GO) test -race -run 'TestWALCrashConsistency|TestMergeCrashConsistency' . -walcrashseeds $(WALCRASHSEEDS)

# Concurrent-writer crash torture: N goroutines of conflicting
# transactions (hot-row updates + unique markers, commit races retried)
# with the process killed at every injectable I/O operation, plus the
# snapshot-isolation sweep (balance-preserving transfers under readers
# and background auto-compaction). Recovery must keep every transaction
# atomically old-or-new and never lose a commit that reported success.
CONCCRASHSEEDS ?= 128
crash-concurrent:
	$(GO) test -race -run 'TestConcurrentCrashConsistency|TestConcurrentSnapshotInvariant' . -conccrashseeds $(CONCCRASHSEEDS)

# End-to-end integrity check of a real extract: generate a CSV with
# tdegen, import it with tdeload, then verify every column record (and
# every decoded value, -deep) with tdecheck.
check-db:
	@rm -rf .checkdb && mkdir -p .checkdb
	$(GO) run ./cmd/tdegen -kind flights -rows 5000 -out .checkdb
	$(GO) run ./cmd/tdeload -out .checkdb/flights.tde flights=.checkdb/flights.csv
	$(GO) run ./cmd/tdecheck -deep .checkdb/flights.tde
	@rm -rf .checkdb

# Multi-session server torture: 64 concurrent sessions with client-side
# faults (slow readers, mid-flight disconnects, overload) under -race,
# plus the admission/fairness/drain suite and the Open/Query/Close race
# regression tests. Leak-free is the pass criterion: zero goroutines,
# pool bytes, or epoch pins left after drain.
serve-torture:
	$(GO) test -race -count=1 -run 'TestServe|TestAdmission' ./internal/serve
	$(GO) test -race -count=1 -run 'TestQueryAfterClose|TestCloseCancelsRegistered|TestCloseRacesInFlight|TestRetryBackoff|TestExecRetryResolves' .

# Process-level smoke: build tdeserve, serve a generated extract, run 3
# concurrent clients, SIGTERM, and require a clean drain + exit 0.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own, outside `go test ./...`: bench-harness vets it and runs its tests
# (every workload at a tiny scale, answers checked against the oracle).
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Measure the working tree against BASE: PAIRS runs per side and workload,
# alternating which side goes first, then bench/run.sh -compare's verdict
# per (workload, metric). About 80 s per pair and workload.
PAIRS ?= 10
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<ref> [PAIRS=10]"; exit 2; }
	$(GO) run ./scripts/benchcompare -base $(BASE) -pairs $(PAIRS)

# Figure 4 (EXPERIMENTS.md E1): import bandwidth, tokenize, split and
# the import arms (scalars only, all columns; encoding and acceleration
# on and off) over SF 0.05 lineitem and 200 000 flights rows, each arm
# timed once. About half a minute on two cores.
fig4:
	$(GO) run ./cmd/tdebench -fig 4 -sf 0.05 -flight-rows 200000

# Figure 10 (EXPERIMENTS.md E7): the three filter/aggregate plans over
# the 1 M and 32 M row run-length tables, best of three per point. It
# builds both tables in memory (about 130 MB resident at peak) and takes
# under two minutes on two cores.
fig10:
	$(GO) run ./cmd/tdebench -fig 10 -small 1000000 -large 32000000 -repeats 3

# End-to-end observability smoke test: generate a small TPC-H corpus,
# load three tables, run a two-hash-join aggregation with EXPLAIN
# ANALYZE + -trace through the real CLI on 2 workers (the 60K-row
# lineitem would plan serially in auto mode), so the trace holds join
# probes inside the aggregate's workers, and validate the emitted Chrome
# trace's structure with tracecheck.
LINEITEM_SCHEMA = l_orderkey:int,l_partkey:int,l_suppkey:int,l_linenumber:int,l_quantity:int,l_extendedprice:real,l_discount:real,l_tax:real,l_returnflag:str,l_linestatus:str,l_shipdate:date,l_commitdate:date,l_receiptdate:date,l_shipinstruct:str,l_shipmode:str,l_comment:str
ORDERS_SCHEMA = o_orderkey:int,o_custkey:int,o_orderstatus:str,o_totalprice:real,o_orderdate:date,o_orderpriority:str,o_clerk:str,o_shippriority:int,o_comment:str
CUSTOMER_SCHEMA = c_custkey:int,c_name:str,c_address:str,c_nationkey:int,c_phone:str,c_acctbal:real,c_mktsegment:str,c_comment:str
TRACE_QUERY = SELECT c_mktsegment, COUNT(*), SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment

trace-smoke:
	@rm -rf .tracedb && mkdir -p .tracedb
	$(GO) run ./cmd/tdegen -kind tpch -sf 0.01 -out .tracedb
	$(GO) run ./cmd/tdeload -out .tracedb/tpch.tde -header no -schema '$(LINEITEM_SCHEMA)' lineitem=.tracedb/lineitem.tbl
	$(GO) run ./cmd/tdeload -append -out .tracedb/tpch.tde -header no -schema '$(ORDERS_SCHEMA)' orders=.tracedb/orders.tbl
	$(GO) run ./cmd/tdeload -append -out .tracedb/tpch.tde -header no -schema '$(CUSTOMER_SCHEMA)' customer=.tracedb/customer.tbl
	$(GO) run ./cmd/tdequery -db .tracedb/tpch.tde -workers 2 -analyze -trace .tracedb/q.trace.json "$(TRACE_QUERY)"
	$(GO) run ./scripts/tracecheck .tracedb/q.trace.json
	@rm -rf .tracedb

check: vet build race fuzz

clean:
	$(GO) clean ./...

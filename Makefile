GO ?= go

.PHONY: build test race cover lint fuzz-short bench-json serve-smoke perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/concurrent/... ./internal/window/... ./internal/codec/... ./internal/counterbraids/... ./internal/server/... ./internal/distributed/... ./internal/sketch/... ./internal/core/...

# Coverage floors on the packages where a silent gap is most
# dangerous: the paper's bias-aware sketches and the sketch estimators
# (bit-identical batch paths), the concurrent layer (locks, epochs,
# snapshot swaps), the sliding-window layer (rotation, expiry, cached
# views), the wire-format codec (hostile-input validation, checkpoint
# restore), the Counter Braids structure behind the compressed counter
# plane (merge carries, state restore ceilings), the serving layer, and
# the monitoring fabric. The floors sit below current coverage so
# honest refactors pass while an untested new subsystem fails. CI runs
# this target.
COVER_FLOORS = \
	./internal/core:85 \
	./internal/sketch:90 \
	./internal/concurrent:85 \
	./internal/window:85 \
	./internal/codec:85 \
	./internal/counterbraids:90 \
	./internal/server:85 \
	./internal/distributed:85

cover:
	@fail=0; for pf in $(COVER_FLOORS); do \
		pkg=$${pf%:*}; floor=$${pf##*:}; \
		pct=$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		echo "$$pkg coverage: $${pct}% (floor $${floor}%)"; \
		if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p != "" && p >= f) }'; then \
			echo "::error::$$pkg coverage $${pct}% fell below the $${floor}% floor"; fail=1; \
		fi; \
	done; exit $$fail

# fuzz-short gives every fuzz target in the module ten seconds — enough
# to catch a regression in a validation layer; long runs belong in a
# scheduled job. go test -fuzz takes one target in one package per run,
# so each entry is package:target. CI runs this target.
FUZZ_TARGETS = \
	.:FuzzUnmarshal \
	.:FuzzMarshalRoundTrip \
	.:FuzzDecode \
	.:FuzzNewRange \
	.:FuzzNewWindowed \
	.:FuzzDecodeDelta \
	./internal/codec:FuzzDecodeSketch \
	./internal/codec:FuzzSketchRoundTrip \
	./internal/biasheap:FuzzHeapAgainstReference \
	./internal/vecmath:FuzzMinBetaErrK \
	./internal/vecmath:FuzzErrKInvariants \
	./internal/vecmath:FuzzMultiBias

fuzz-short:
	@set -e; for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; target=$${pt##*:}; \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$${target}\$$" -fuzztime 10s $$pkg; \
	done

# serve-smoke is the end-to-end sketchd drill: build the real binary,
# boot it on an ephemeral port with a checkpoint directory, ingest and
# query over TCP, kill -TERM it mid-ingest, and assert a clean drain
# (exit 0, final checkpoint) plus a bit-identical restart.
serve-smoke:
	$(GO) test -run TestServeSmokeProcess -v -count=1 ./internal/server

# lint mirrors CI's lint job: go vet, then the repo's own sketchlint
# multichecker through the vet -vettool protocol (lock/defer pairing,
# the //sketch:hotpath zero-allocation contract, bounded decode makes,
# typed boundary errors). staticcheck and govulncheck run when
# installed; CI installs pinned versions (see .github/workflows/ci.yml)
# so a local skip never hides a finding for long.
lint:
	$(GO) vet ./...
	$(GO) vet -vettool="$$($(GO) run ./cmd/sketchlint -print-path)" ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipped (CI runs it pinned)"; fi

# perfbench/ is its own module (replace → repo root), so the root
# go build/vet/test ./... never compiles it; this target does, so a
# change to an internal API the benchmark driver calls fails here
# instead of at benchmark time.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Regenerate the checked-in benchmark baseline.
bench-json:
	$(GO) run ./cmd/benchjson

# Developer entry points. `make lint` runs the same checks as CI's
# required lint job, in the same order.

GO ?= go

.PHONY: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint mirrors .github/workflows/ci.yml's lint job step for step. The
# pinned third-party analyzers are skipped with a warning when the
# binaries are not installed (this module has no dependencies and offline
# machines cannot fetch tools); CI always runs them at the pinned
# versions.
lint:
	$(GO) run ./cmd/tyrlint -json tyrlint.json ./...
	$(GO) test -race -count=1 -run 'TestStoreEquivalenceRaceSlice|TestSharedGraphConcurrentRuns' ./internal/harness/
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "warning: staticcheck not installed; CI runs it pinned (see .github/workflows/ci.yml)" >&2; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "warning: govulncheck not installed; CI runs it pinned (see .github/workflows/ci.yml)" >&2; fi

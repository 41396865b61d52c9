#!/bin/sh
# Repo-wide verification: formatting (with simplification), vet, the
# qoslint determinism/durability analyzers, build, and the full test suite
# under the race detector. ROADMAP.md's tier-1 verify line points here.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== qoslint ./..."
go run ./cmd/qoslint ./...

echo "== go build ./..."
go build ./...

# qosbench is a module of its own, so the root ./... never reaches it; vet
# and build it the way qosbench/run.sh does, offline.
echo "== qosbench: go vet + go build"
(cd qosbench && export GOWORK=off GOFLAGS=-mod=mod GOPROXY=off &&
    go vet ./... && go build -o /dev/null .)

echo "== go test -race ./..."
go test -race ./...

echo "== qossim validate internal/scenario/zoo"
go run ./cmd/qossim validate internal/scenario/zoo

echo "OK"

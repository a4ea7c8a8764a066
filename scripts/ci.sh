#!/bin/sh
# Tier-1 verification, split into composable stages so CI systems can run
# them as separate jobs and developers can re-run just the piece they
# broke. `make verify` delegates here.
#
# Usage: scripts/ci.sh [stage]
#   vet    go vet + go build, then the loc figure and the one-way gates
#          (outside bench/ and tests, no import of encoding/gob — the
#          binary wire codec is the one codec — and at most one call site each of
#          stm.NewRuntime and workload.Drive: internal/testbed's, and
#          exactly one line serving a benchmark's .Op( outside
#          internal/apps: testbed's Drive; in
#          internal/stm, at most one LocateBatch call and one loop bounded
#          by maxOwnerHops: ownerWave's; and one LockBatch call:
#          Runtime.lockAnnounced's; and no goroutine started: a
#          transaction's steps run on the goroutine of its atomic block, and
#          only a lock's holder frees it, so no reaper runs; and one call
#          popping a scheduler queue: Runtime.handOff's;
#          and no clock read in runtime.go outside the store's read,
#          and no Store.State call: every owner reply, a validation's
#          included, is built from one Store.Read;
#          and one scheduler conflict decision, inside the retrieve's
#          store read, and no per-object map field or migrMu in
#          runtime.go: the store is the one owner record; and one
#          store Unlock and one UpdateCommitted call, no validateMany or
#          abortUnlock, and no KindRelease: Txn.releaseLocks frees every
#          lock on its own node; in internal/object, no stale-lock fence;
#          in internal/apps, one sorted-set seeding loop and one
#          strictly-increasing check: apps.Set's, no CreateRoot call and
#          one CreateRoots call: apps.Seed's; in internal/cluster,
#          exactly one deletion from the dedup map: the floor prune, and
#          no go statement: a request is served on its delivery goroutine
#          and a wave is sent and awaited on its caller's; and exactly one
#          call installing the endpoint's piggyback: cc.NewService's)
#   loc    lines of non-test Go outside bench/ (ROADMAP aim 2's measure)
#   test   go test with the protocol-package coverage floor
#   race   full suite under the race detector
#   perf   perf smokes: commit-pipeline msgs/commit bound, the
#          announced-write two-wave gate, the
#          one-retrieve-wave-after-publish and gossiped-move count gates, the
#          one-registration-wave seeding gate, the
#          wire-codec allocation gate, the open-loop rows of
#          internal/testbed's drive test (all three schedulers, memnet and
#          TCP), the repo benchmark in smoke mode (`go run ./bench
#          -quick`, JSON to $TMPDIR/ci_bench_quick.json: fails unless its
#          output checks pass, the trace oracle is clean and
#          cluster.other_msgs_per_op, cluster.self_msgs_per_op and
#          cc.stale_entries are 0 on every workload), and a
#          3-process dstmnode open-loop bank smoke over real TCP. Writes
#          nothing under results/.
#   fuzz   every fuzz target for CI_FUZZTIME each (differential
#          gob <-> binary oracles included)
#   all    all of the above, in that order (default)
#
# Environment knobs:
#   CI_FUZZTIME    per-target fuzz budget (default 3s; "0" skips fuzzing)
#   CI_COV_FLOOR   minimum combined coverage % for internal/stm +
#                  internal/core (default 70). Enforced by default;
#                  set CI_COV_STRICT=0 to downgrade a shortfall to a
#                  warning.
set -eu

cd "$(dirname "$0")/.."

CI_FUZZTIME="${CI_FUZZTIME:-3s}"
CI_COV_FLOOR="${CI_COV_FLOOR:-70}"
CI_COV_STRICT="${CI_COV_STRICT:-1}"

stage_vet() {
    echo "== go vet ./..."
    go vet ./...

    echo "== go build ./..."
    go build ./...

    stage_loc

    # One way to do each thing (ROADMAP aim 2). One cluster assembly and one
    # drive loop outside bench/: a second call site of either constructor is
    # a second driver. One paper-cell runner: rtsbench's grid.cell is the one
    # non-test line that runs a cell through testbed.Run, so a second
    # experiment loop with its own defaults fails here. One owner wave in
    # internal/stm: a second directory lookup or a second hop-bounded loop is
    # a second locate–send–chase loop.
    # One owner-side commit-lock step: every commit lock is taken by a
    # locking retrieve, served by Runtime.lockAnnounced, which hands what it
    # locked to the locker.
    nontest_go | one_site 'stm\.NewRuntime\(' 'assemble and drive through internal/testbed'
    nontest_go | one_site 'workload\.Drive\(' 'assemble and drive through internal/testbed'
    nontest_go | one_site 'testbed\.Run\(' "run a paper cell through rtsbench's grid.cell"
    # One op loop: outside the benchmarks themselves, the one line that
    # serves a benchmark's operation is testbed's Drive, so a second worker
    # loop (one that could drop an operation's error) fails here.
    nontest_go | grep -v '^\./internal/apps/' | one_site '\.Op\(' 'serve operations through testbed.Cluster.Drive' exactly
    nontest_go | grep '^\./internal/testbed/' | one_site '\.Op\(' 'serve operations through testbed.Cluster.Drive' exactly
    nontest_go | grep '^\./internal/stm/' | one_site 'LocateBatch\(' 'locate, send and chase through ownerWave'
    nontest_go | grep '^\./internal/stm/' | one_site 'for .*maxOwnerHops' 'locate, send and chase through ownerWave'
    nontest_go | grep '^\./internal/stm/' | one_site 'LockBatch\(' 'commit-lock through Runtime.lockAnnounced'
    # A transaction's steps run in order on the goroutine of its atomic
    # block, and only a lock's holder frees it, so internal/stm starts no
    # goroutine: there is no lock lease for one to reap.
    nontest_go | grep '^\./internal/stm/' | one_site '^\s*go func' 'run a transaction step on the goroutine of its atomic block' none
    # One owner-side read: a retrieve reply and a hand-off push take their
    # copies and their clock from one Store.Read, so a clock read of its own
    # in runtime.go is a reply cut apart from its copies; and every freed
    # object is served through Runtime.handOff, the one call that pops a
    # scheduler queue.
    echo ./internal/stm/runtime.go | one_site 'clock\.Now\(\)' "read a reply's clock inside Store.Read" none
    # A validation is a prefetch retrieve, so no owner reply reads the store
    # entry by entry: a per-entry Store.State read is a reply that is not
    # one cut.
    nontest_go | grep '^\./internal/stm/' | one_site '\.State\(' 'build an owner reply from one Store.Read' none
    nontest_go | grep '^\./internal/stm/' | one_site 'OnRelease\(' 'serve a freed object through Runtime.handOff' exactly
    # One owner record: the store holds every piece of an owner's per-object
    # state (copy, lock, departure record) under its one mutex, and the
    # scheduler decides a conflict inside the retrieve's Store.Read, so a
    # per-object map or a mutex of the runtime's own beside the store, or a
    # second conflict decision outside that read, fails here.
    echo ./internal/stm/runtime.go | one_site '^\s+[[:alnum:]_, ]+\s+map\[object\.ID\]|migrMu' 'keep per-object owner state in object.Store' none
    nontest_go | grep '^\./internal/stm/' | one_site 'OnConflict\(' "decide a conflict inside the retrieve's Store.Read" exactly
    # One lock set and one release site per attempt: the commit locks into
    # the attempt's holdings and validates through validateChain, and every
    # lock is freed on the locker's own node by Txn.releaseLocks — after the
    # homes wave, the commit's writes published in place, the rest unlocked —
    # so a second unlock or in-place publish, a second read-set validation
    # or a per-commit unlock helper fails here. Every lock is local, so
    # nothing sends the retired remote release, and no release can overtake
    # its lock request, so the store keeps no stale-lock fence.
    nontest_go | grep '^\./internal/stm/' | one_site 'store\.Unlock\(' 'free a lock through Txn.releaseLocks' exactly
    nontest_go | grep '^\./internal/stm/' | one_site 'store\.UpdateCommitted\(' 'publish a write through Txn.releaseLocks' exactly
    nontest_go | grep '^\./internal/stm/' | one_site 'validateMany|abortUnlock' 'validate through validateChain and release through Txn.releaseLocks' none
    nontest_go | grep '^\./internal/stm/' | one_site 'KindRelease' 'free a lock on its own node (Txn.releaseLocks); kind 13 is retired' none
    nontest_go | grep '^\./internal/object/' | one_site 'fence' 'keep no stale-lock fence: no release can overtake its lock request' none
    # One sorted-set benchmark: Linked-List, BST and RB-Tree supply only
    # their layout to apps.Set, so a second seeding loop or a second order
    # check in internal/apps is a second copy of the skeleton.
    nontest_go | grep '^\./internal/apps/' | one_site 'inserted%len\(rts\)' 'seed and check a sorted set through apps.Set'
    nontest_go | grep '^\./internal/apps/' | one_site '\[i-1\] >= ' 'seed and check a sorted set through apps.Set'
    # One seeding wave: a benchmark hands its starting objects to apps.Seed,
    # whose one CreateRoots call per node registers them with one batch per
    # home, all nodes at once; a CreateRoot per object is a round trip each.
    nontest_go | grep '^\./internal/apps/' | one_site 'CreateRoot\(' 'seed through apps.Seed, one CreateRoots wave' none
    nontest_go | grep '^\./internal/apps/' | one_site 'CreateRoots\(' 'seed through apps.Seed, one CreateRoots wave' exactly
    # At most once, one rule: the receiver forgets a sender's requests only
    # once the sender's floor has passed them, so no cap or FIFO may evict
    # an entry too, and without the prune the map would grow without bound.
    nontest_go | grep '^\./internal/cluster/' | one_site 'delete\(e\.dedup' 'forget a request only once its sender floor passes it' exactly
    # No goroutine per message: a request handler runs on the goroutine
    # that delivered the request, and Broadcast sends its wave and collects
    # the replies on the caller's.
    nontest_go | grep '^\./internal/cluster/' | one_site '^\s*go [[:alnum:]_(]' 'serve a request on its delivery goroutine, send and await a wave on the calling one' none
    # One piggyback: what rides beside every message's payload is cc's
    # gossip of the objects its sender took, installed by cc.NewService, so
    # a second producer that would displace it (or a node without it) fails
    # here.
    nontest_go | one_site '\.SetPiggyback\(' 'attach owner hints to every message through cc.NewService' exactly
    nontest_go | grep '^\./internal/cc/' | one_site '\.SetPiggyback\(' 'attach owner hints to every message through cc.NewService' exactly
    # One codec: whatever crosses a socket has a binary wire codec, and gob
    # is only the reference of the differential fuzz oracles.
    if gob=$(nontest_go | xargs grep -l '"encoding/gob"'); then
        printf '%s\n' "$gob" >&2
        echo "encoding/gob imported outside tests: give the type a wire.Codec and wire.Register it" >&2
        exit 1
    fi
    echo "== non-test files importing encoding/gob: 0"
}

# one_site PATTERN HINT [exactly|none]: fails when the extended regexp
# PATTERN matches more than one line of the Go files named on stdin — or,
# with "exactly", any number of lines but one; with "none", any line.
one_site() {
    sites=$(xargs grep -nE "$1" || true)
    n=$(printf '%s' "$sites" | grep -c . || true)
    echo "== lines matching $1: $n"
    if [ "$n" -gt 1 ] || { [ "${3:-}" = exactly ] && [ "$n" -ne 1 ]; } || { [ "${3:-}" = none ] && [ "$n" -ne 0 ]; }; then
        printf '%s\n' "$sites" >&2
        case "${3:-}" in
        none) echo "$n lines match $1, want none: $2" >&2 ;;
        *) echo "$n lines match $1, want ${3:-at most} one: $2" >&2 ;;
        esac
        exit 1
    fi
}

# nontest_go lists the non-test Go files outside bench/.
nontest_go() {
    find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'
}

stage_loc() {
    echo "== non-test Go outside bench/ (lines)"
    nontest_go | xargs cat | wc -l
}

stage_test() {
    echo "== go test ./... (with coverage on internal/stm + internal/core)"
    go test -coverprofile=coverage.out -coverpkg=dstm/internal/stm,dstm/internal/core ./...

    cov=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    echo "== coverage (internal/stm + internal/core): ${cov}% (floor ${CI_COV_FLOOR}%)"
    if [ "$(awk -v c="$cov" -v f="$CI_COV_FLOOR" 'BEGIN {print (c < f)}')" = 1 ]; then
        if [ "$CI_COV_STRICT" = 1 ]; then
            echo "coverage ${cov}% is below the ${CI_COV_FLOOR}% floor" >&2
            exit 1
        fi
        echo "WARNING: coverage ${cov}% is below the ${CI_COV_FLOOR}% soft floor" >&2
    fi
}

stage_race() {
    echo "== go test -race ./..."
    go test -race ./...
}

stage_perf() {
    # Commit-pipeline perf smoke: an 8-object transaction spread over 2
    # owners must finish its commit phases within the owner-grouped batch
    # bound (per-owner rounds, not per-object messages); and a bank-shaped
    # nested write whose write set was announced blocks on one locking
    # retrieve wave and one homes wave, with no acquire and no validation,
    # and its old owners hear nothing but their locks.
    echo "== commit-pipeline msgs/commit bound, announced write in two waves"
    go test ./internal/stm/ -run 'TestCommitMsgsBoundEightObjectsTwoOwners|TestAnnouncedNestedWriteIsTwoWaves' -count=1

    # Retrieve-wave count gate: after a commit every node it reached (the
    # old owner by the lock, the homes by the homes wave) finds the moved
    # objects with ONE retrieve, no stale hop and no directory message; the
    # homes wave is one message per home outside {committer, old owner}, and
    # none when there is no such home; and a node the commit did not reach
    # does the same once the committer has sent it any message (the gossip
    # of what it took).
    echo "== one retrieve wave after a commit"
    go test ./internal/stm/ -run 'TestOneRetrieveWaveAfterPublish|TestPublishWaveIsOneMessagePerNode|TestGossipedMoveNeedsNoChase' -count=1

    # Seeding count gate: k objects on each of n nodes register in one wave,
    # at most one batch from each node to each other home whatever k, all
    # sent before the first reply.
    echo "== seeding is one registration wave"
    go test ./internal/testbed/ -run 'TestCreateRootsIsOneRegistrationWave' -count=1

    # Wire-codec allocation gate: encoding the hot protocol payloads — the
    # retrieve (a validation's included) and the publish — and a frame
    # carrying owner hints must be allocation-free, and decoding one must
    # allocate only the fresh payload and its slices.
    echo "== wire-codec allocation gate"
    go test ./internal/stm/ -run TestWireCodecZeroAlloc -count=1

    # Open-loop smoke: the one drive loop, open, under each of the three
    # schedulers on memnet and loopback TCP, plus an overloaded cell that
    # must shed; every cell conserves money, accounts for each operation it
    # offered and leaves a trace the oracle accepts.
    echo "== open-loop drive smoke (internal/testbed)"
    go test ./internal/testbed/ -run 'TestDrive/open' -count=1

    # Repo benchmark, smoke mode: all five open-loop workloads with 3 s
    # windows (about a minute on two cores). Exit 0 means every workload's
    # output check held (conservation, no orphaned or multiply-owned
    # object); the oracle verdict and the per-kind message budget are only
    # reported in the JSON, so check them: the trace oracle must be clean,
    # and no message may fall outside the benchmark's per-kind table
    # (cluster.other_msgs_per_op = 0) — the guard that a protocol change
    # did not introduce a kind the budget cannot attribute — and no node may
    # address a message to itself (cluster.self_msgs_per_op = 0): self-calls
    # run in process, so one on the fabric has crept back — and every home
    # directory entry must name the store that holds the object once the
    # cluster is quiet (cc.stale_entries = 0).
    quick="${TMPDIR:-/tmp}/ci_bench_quick.json"
    echo "== bench -quick ($quick)"
    go run ./bench -quick -out "$quick"
    awk '
        /"fabric":/ { workloads++ }
        /"trace.oracle_ok":/ { want = "oracle"; next }
        /"cluster.other_msgs_per_op":/ { want = "other"; next }
        /"cluster.self_msgs_per_op":/ { want = "self"; next }
        /"cc.stale_entries":/ { want = "stale"; next }
        want != "" && /"value":/ {
            if (want == "oracle" && $2 + 0 == 1) clean++
            if (want == "other" && $2 + 0 == 0) known++
            if (want == "self" && $2 + 0 == 0) noself++
            if (want == "stale" && $2 + 0 == 0) fresh++
            want = ""
        }
        END {
            printf "== trace.oracle_ok = 1 on %d, cluster.other_msgs_per_op = 0 on %d, cluster.self_msgs_per_op = 0 on %d, cc.stale_entries = 0 on %d of %d workloads\n", clean, known, noself, fresh, workloads
            exit !(workloads > 0 && clean == workloads && known == workloads && noself == workloads && fresh == workloads)
        }' "$quick"

    # Multi-process smoke: a real 3-process cluster over loopback TCP,
    # driven open-loop, must complete with a clean conservation check.
    echo "== dstmnode 3-process open-loop smoke"
    go run ./cmd/dstmnode -spawn 3 -duration 2s -accounts 8 \
        -openloop -rate 300 -zipf 0.8
}

stage_fuzz() {
    if [ "$CI_FUZZTIME" = 0 ]; then
        echo "== fuzzing skipped (CI_FUZZTIME=0)"
        return
    fi
    echo "== fuzz targets (${CI_FUZZTIME} each)"
    go test ./internal/trace/ -fuzz FuzzReadJSONL -fuzztime "$CI_FUZZTIME"
    go test ./internal/trace/ -fuzz FuzzEventRoundTrip -fuzztime "$CI_FUZZTIME"
    # Transport and protocol round trips are differential oracles: every
    # input is encoded with both gob and the binary codec and the decoded
    # results must agree exactly.
    go test ./internal/transport/ -fuzz FuzzMessageGobRoundTrip -fuzztime "$CI_FUZZTIME"
    go test ./internal/transport/ -fuzz FuzzMessageBinaryDecode -fuzztime "$CI_FUZZTIME"
    go test ./internal/stm/ -fuzz FuzzRetrieveRoundTrip -fuzztime "$CI_FUZZTIME"
    go test ./internal/stm/ -fuzz FuzzCommitPushRoundTrip -fuzztime "$CI_FUZZTIME"
    go test ./internal/stm/ -fuzz FuzzCommitObjBatchRoundTrip -fuzztime "$CI_FUZZTIME"
    go test ./internal/cc/ -fuzz FuzzDirectoryBatchRoundTrip -fuzztime "$CI_FUZZTIME"
}

stage="${1:-all}"
case "$stage" in
vet) stage_vet ;;
loc) stage_loc ;;
test) stage_test ;;
race) stage_race ;;
perf) stage_perf ;;
fuzz) stage_fuzz ;;
all)
    stage_vet
    stage_test
    stage_race
    stage_perf
    stage_fuzz
    ;;
*)
    echo "usage: $0 [vet|loc|test|race|perf|fuzz|all]" >&2
    exit 2
    ;;
esac

echo "CI OK ($stage)"

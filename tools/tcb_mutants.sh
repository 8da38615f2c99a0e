#!/bin/sh
# Seeded-mutant check for the root-of-trust audit (sevf_lint --tcb).
#
# Each mutant plants a violation the audit exists to catch, then runs
# the linter over a scratch copy of src/ and fails unless the expected
# rule fires:
#
#   A  the boot verifier grows a call into compress/gzip_lite - the
#      banned-module reachability pass (tcb-reach) must flag the
#      boundary crossing (the paper's verifier must never contain a
#      DEFLATE stack);
#   B  the bzImage parser loses its payload bounds check - the
#      untrusted-input bounds pass (untrusted-bounds) must flag the
#      now-unguarded subspan;
#   C  a guest-memory write the verifier reaches calls into
#      memory/dram - tcb-reach must flag it (the root of trust never
#      manages host mappings);
#   D  as A, through gzip-lite's decode-into entry point
#      (decompressInto) instead of decompress;
#   E  as A, planted in Rmp::pvalidate, which the verifier's
#      validation sweep calls through a chained receiver
#      (mem_.rmp().pvalidate): the audit must resolve that call.
#
# A clean baseline run over the unmutated copy guards against
# environmental noise being mistaken for detection.
#
# usage: tcb_mutants.sh <sevf_lint-binary> <repo-root>
set -eu

lint="$1"
root="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

run_lint() {
    # shellcheck disable=SC2015
    "$lint" --root "$tmp/src" \
        --secret-sources "$root/tools/secret-sources.txt" \
        --lock-order "$root/tools/lock-order.txt" \
        --tcb-budget "$root/tools/tcb-budget.txt" \
        --jobs 0 >"$tmp/out.txt" 2>&1 && echo 0 || echo $?
}

fresh_copy() {
    rm -rf "$tmp/src"
    cp -r "$root/src" "$tmp/src"
}

expect_rule() {
    name="$1"
    rule="$2"
    status="$(run_lint)"
    if [ "$status" = 0 ]; then
        echo "FAIL mutant $name: lint stayed clean, expected [$rule]" >&2
        exit 1
    fi
    if ! grep -q "\[$rule\]" "$tmp/out.txt"; then
        echo "FAIL mutant $name: expected [$rule], got:" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    echo "ok   mutant $name caught ([$rule])"
}

# Baseline: the pristine tree must be clean or mutant detection means
# nothing.
fresh_copy
status="$(run_lint)"
if [ "$status" != 0 ]; then
    echo "FAIL baseline: pristine src/ does not lint clean:" >&2
    cat "$tmp/out.txt" >&2
    exit 1
fi
echo "ok   baseline clean"

# Mutant A: verifier reaches the DEFLATE stack.
fresh_copy
sed -i 's/    VerifiedBoot out;/    VerifiedBoot out;\
    compress::GzipLiteCodec gz = compress::GzipLiteCodec();\
    gz.decompress(ByteSpan());/' "$tmp/src/verifier/boot_verifier.cc"
expect_rule A tcb-reach

# Mutant B: bzImage payload bounds check deleted.
fresh_copy
sed -i 's/payload_file_off + info\.payload_length > file\.size()/false/' \
    "$tmp/src/image/bzimage.cc"
expect_rule B untrusted-bounds

# Mutant C: GuestMemory::guestWrite reaches the DRAM mapping.
fresh_copy
sed -i '/^GuestMemory::guestWrite(/,/^}/ s/    materializeRange(gpa, data.size());/&\
    dram_.useSmallPages();/' "$tmp/src/memory/guest_memory.cc"
expect_rule C tcb-reach

# Mutant D: verifier reaches the DEFLATE stack through decompressInto.
fresh_copy
sed -i 's/    VerifiedBoot out;/    VerifiedBoot out;\
    compress::GzipLiteCodec gz = compress::GzipLiteCodec();\
    gz.decompressInto(ByteSpan(), MutByteSpan());/' \
    "$tmp/src/verifier/boot_verifier.cc"
expect_rule D tcb-reach

# Mutant E: the RMP's pvalidate reaches the DEFLATE stack.
fresh_copy
sed -i '/^Rmp::pvalidate(/,/^}/ s/    RmpEntry &e = entries_\[\*idx\];/&\
    compress::GzipLiteCodec gz = compress::GzipLiteCodec();\
    gz.decompress(ByteSpan());/' "$tmp/src/memory/rmp.cc"
expect_rule E tcb-reach

echo "tcb_mutants: all mutants caught"

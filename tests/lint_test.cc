/**
 * @file
 * Unit tests for the sevf_lint concurrency/interprocedural engine
 * (tools/sevf_lint_engine.h): cross-TU symbol resolution, summary
 * fixed-point convergence, the guarded-by lockset pass, lock-order
 * spec + cycle checking, and suppression handling on the three
 * concurrency fixture families. The fixture self-test (sevf_lint
 * --selftest) covers the end-to-end CLI; these tests pin down engine
 * semantics at the API level where failures are easier to localize.
 */
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "tools/sevf_lint_engine.h"

namespace fs = std::filesystem;
using sevf::lint::LockOrderSpec;
using sevf::lint::Options;
using sevf::lint::RunResult;
using sevf::lint::Violation;

namespace {

/** A per-test scratch tree under the system temp dir, removed on exit. */
class TempTree
{
  public:
    TempTree()
    {
        static int counter = 0;
        root_ = fs::temp_directory_path() /
                ("sevf_lint_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::create_directories(root_);
    }

    ~TempTree() { fs::remove_all(root_); }

    TempTree(const TempTree &) = delete;
    TempTree &operator=(const TempTree &) = delete;

    const fs::path &root() const { return root_; }

    void
    write(const std::string &rel, const std::string &content)
    {
        fs::path p = root_ / rel;
        fs::create_directories(p.parent_path());
        std::ofstream out(p);
        out << content;
    }

  private:
    fs::path root_;
};

std::vector<Violation>
lint(const TempTree &tree,
     std::optional<LockOrderSpec> spec = std::nullopt)
{
    Options opts;
    opts.root = tree.root();
    opts.jobs = 1;
    opts.lock_order_spec = std::move(spec);
    return sevf::lint::runLint(opts).violations;
}

size_t
countRule(const std::vector<Violation> &vs, const std::string &rule)
{
    size_t n = 0;
    for (const Violation &v : vs) {
        if (v.rule == rule) {
            ++n;
        }
    }
    return n;
}

// ---- guarded-by ----------------------------------------------------------

constexpr const char *kGuardedStruct = R"(
namespace t {

struct Counters {
    base::Mutex mu;
    long hits SEVF_GUARDED_BY(mu) = 0;

    void
    bumpLocked()
    {
        base::MutexLock lock(mu);
        ++hits;
    }

    void
    bumpUnlocked()
    {
        ++hits;
    }
};

} // namespace t
)";

TEST(LintGuardedBy, UnlockedFieldAccessFlaggedLockedClean)
{
    TempTree tree;
    tree.write("a.cc", kGuardedStruct);
    std::vector<Violation> vs = lint(tree);
    ASSERT_EQ(countRule(vs, "guarded-by"), 1u);
    for (const Violation &v : vs) {
        if (v.rule == "guarded-by") {
            EXPECT_NE(v.message.find("Counters::hits"), std::string::npos)
                << v.message;
        }
    }
}

TEST(LintGuardedBy, RequiresCallNeedsLock)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Box {
    base::Mutex mu;
    long v SEVF_GUARDED_BY(mu) = 0;
};

void
touch(Box &b) SEVF_REQUIRES(b.mu)
{
    ++b.v;
}

void
good(Box &b)
{
    base::MutexLock lock(b.mu);
    touch(b);
}

void
bad(Box &b)
{
    touch(b);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    ASSERT_EQ(countRule(vs, "guarded-by"), 1u);
    for (const Violation &v : vs) {
        if (v.rule == "guarded-by") {
            EXPECT_NE(v.message.find("touch"), std::string::npos);
            EXPECT_NE(v.message.find("Box::mu"), std::string::npos);
        }
    }
}

TEST(LintGuardedBy, NoThreadSafetyAnalysisExemptsFunction)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Counters {
    base::Mutex mu;
    long hits SEVF_GUARDED_BY(mu) = 0;

    void
    lockFree() SEVF_NO_THREAD_SAFETY_ANALYSIS
    {
        ++hits;
    }
};

} // namespace t
)");
    EXPECT_EQ(countRule(lint(tree), "guarded-by"), 0u);
}

// ---- lock-order: cross-TU resolution + cycles ----------------------------

TEST(LintLockOrder, CrossFileCycleReportedPerEdge)
{
    TempTree tree;
    // The struct lives in one TU; the reversed nesting in another. The
    // cycle only exists once both files resolve against the same
    // symbol table, so this is the multi-file resolution test too.
    tree.write("ab.cc", R"(
namespace t {

struct Device {
    base::Mutex reg_mu;
    base::Mutex queue_mu;
};

void
forward(Device &d)
{
    base::MutexLock a(d.reg_mu);
    base::MutexLock b(d.queue_mu);
}

} // namespace t
)");
    tree.write("ba.cc", R"(
namespace t {

void
backward(Device &d)
{
    base::MutexLock b(d.queue_mu);
    base::MutexLock a(d.reg_mu);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    // One violation per edge in the cycle, so each site can carry its
    // own suppression.
    EXPECT_EQ(countRule(vs, "lock-order"), 2u);
    bool in_ab = false;
    bool in_ba = false;
    for (const Violation &v : vs) {
        in_ab = in_ab || v.file == "ab.cc";
        in_ba = in_ba || v.file == "ba.cc";
    }
    EXPECT_TRUE(in_ab);
    EXPECT_TRUE(in_ba);
}

TEST(LintLockOrder, DeclaredOrderSilencesForwardFlagsReverse)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Device {
    base::Mutex reg_mu;
    base::Mutex queue_mu;
};

void
forward(Device &d)
{
    base::MutexLock a(d.reg_mu);
    base::MutexLock b(d.queue_mu);
}

} // namespace t
)");
    LockOrderSpec forward_spec;
    forward_spec.order.emplace_back("Device::reg_mu", "Device::queue_mu");
    EXPECT_EQ(countRule(lint(tree, forward_spec), "lock-order"), 0u);

    LockOrderSpec reverse_spec;
    reverse_spec.order.emplace_back("Device::queue_mu", "Device::reg_mu");
    std::vector<Violation> vs = lint(tree, reverse_spec);
    ASSERT_EQ(countRule(vs, "lock-order"), 1u);
    for (const Violation &v : vs) {
        EXPECT_NE(v.message.find("contradicts"), std::string::npos);
    }
}

TEST(LintLockOrder, ExclusivePairBansNestingBothWaysAndSelf)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Shardish {
    base::Mutex mu;
};

struct Auditish {
    base::Mutex mu;
};

void
nested(Shardish &s, Auditish &a)
{
    base::MutexLock sl(s.mu);
    base::MutexLock al(a.mu);
}

void
selfNested(Shardish &s, Shardish &t2)
{
    base::MutexLock sl(s.mu);
    base::MutexLock tl(t2.mu);
}

} // namespace t
)");
    LockOrderSpec spec;
    spec.exclusive = {{"Shardish::mu", "Auditish::mu"},
                      {"Shardish::mu", "Shardish::mu"}};
    std::vector<Violation> vs = lint(tree, spec);
    EXPECT_EQ(countRule(vs, "lock-order"), 2u);
}

// ---- interprocedural secret-flow summaries -------------------------------

TEST(LintSecretFlow, SummaryChainConvergesAcrossFiles)
{
    TempTree tree;
    // Two-hop secret-returning chain split across TUs: the fixed point
    // must first classify derive(), then rewrap() on a later round.
    tree.write("helper.cc", R"(
namespace t {

unsigned long
derive(unsigned long salt)
{
    auto key = dhSharedKey(salt);
    return key;
}

unsigned long
rewrap(unsigned long salt)
{
    auto wrapped = derive(salt);
    return wrapped;
}

} // namespace t
)");
    tree.write("caller.cc", R"(
namespace t {

void
leak(unsigned long salt)
{
    auto key = rewrap(salt);
    inform("key ", key);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    EXPECT_EQ(countRule(vs, "interproc-secret-flow"), 1u);
    EXPECT_EQ(countRule(vs, "secret-flow"), 0u);
}

TEST(LintSecretFlow, MutualRecursionConverges)
{
    TempTree tree;
    // ping/pong call each other; the fixed point must terminate and
    // neither is secret-returning (no source anywhere).
    tree.write("a.cc", R"(
namespace t {

unsigned long
ping(unsigned long n)
{
    auto v = pong(n);
    return v;
}

unsigned long
pong(unsigned long n)
{
    auto v = ping(n);
    return v;
}

void
fine(unsigned long n)
{
    auto v = ping(n);
    inform("value ", v);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    EXPECT_EQ(countRule(vs, "interproc-secret-flow"), 0u);
    EXPECT_EQ(countRule(vs, "secret-flow"), 0u);
}

TEST(LintSecretFlow, SinkForwardingParameterFlagsTaintedArgument)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

void
logPayload(unsigned long data)
{
    inform("payload ", data);
}

void
leak(unsigned long salt)
{
    auto key = dhSharedKey(salt);
    logPayload(key);
}

void
fine(unsigned long plain)
{
    logPayload(plain);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    EXPECT_EQ(countRule(vs, "interproc-secret-flow"), 1u);
}

TEST(LintSecretFlow, DeclassifyLaundersInterprocTaint)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

unsigned long
derive(unsigned long salt)
{
    auto key = dhSharedKey(salt);
    return key;
}

void
clean(unsigned long salt)
{
    auto key = derive(salt);
    declassify(key, "reviewed");
    inform("key ", key);
}

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    EXPECT_EQ(countRule(vs, "interproc-secret-flow"), 0u);
    EXPECT_EQ(countRule(vs, "secret-flow"), 0u);
}

// ---- suppression on the three new rule families --------------------------

TEST(LintSuppression, AllThreeConcurrencyFamiliesSuppressible)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Gauge {
    base::Mutex mu;
    long level SEVF_GUARDED_BY(mu) = 0;

    void
    poke()
    {
        ++level; // sevf_lint: allow(guarded-by)
    }
};

struct Pair {
    base::Mutex a_mu;
    base::Mutex b_mu;
};

void
forward(Pair &p)
{
    base::MutexLock a(p.a_mu);
    base::MutexLock b(p.b_mu); // sevf_lint: allow(lock-order)
}

void
backward(Pair &p)
{
    base::MutexLock b(p.b_mu);
    base::MutexLock a(p.a_mu); // sevf_lint: allow(lock-order)
}

unsigned long
makeKey(unsigned long salt)
{
    auto key = dhSharedKey(salt);
    return key;
}

void
noteKey(unsigned long salt)
{
    auto key = makeKey(salt);
    inform("key ", key); // sevf_lint: allow(interproc-secret-flow)
}

} // namespace t
)");
    // Every violation suppressed, every marker consumed: fully clean.
    EXPECT_TRUE(lint(tree).empty());
}

TEST(LintSuppression, StaleConcurrencyMarkerIsAnError)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

struct Gauge {
    base::Mutex mu;
    long level SEVF_GUARDED_BY(mu) = 0;

    void
    poke()
    {
        base::MutexLock lock(mu);
        ++level; // sevf_lint: allow(guarded-by)
    }
};

} // namespace t
)");
    std::vector<Violation> vs = lint(tree);
    EXPECT_EQ(countRule(vs, "unused-suppression"), 1u);
}


// ---- root-of-trust audit -------------------------------------------------

sevf::lint::RunResult
lintFull(const TempTree &tree,
         std::optional<sevf::lint::TcbBudget> budget = std::nullopt)
{
    Options opts;
    opts.root = tree.root();
    opts.jobs = 1;
    opts.tcb_budget = std::move(budget);
    return sevf::lint::runLint(opts);
}

constexpr const char *kTcbEntryTree = R"(
namespace t {

int
leafStep(int x)
{
    return x + 1;
}

int
middleStep(int x)
{
    return leafStep(x) + leafStep(x + 1);
}

int
bootEntry(int x) SEVF_TCB
{
    return middleStep(x);
}

int
notInTcb(int x)
{
    return x * 5;
}

} // namespace t
)";

TEST(LintTcb, ClosureInventoryCoversTransitiveCalleesOnly)
{
    TempTree tree;
    tree.write("boot/entry.cc", kTcbEntryTree);
    sevf::lint::RunResult r = lintFull(tree);
    EXPECT_TRUE(r.violations.empty());
    ASSERT_EQ(r.tcb.entry_points.size(), 1u);
    EXPECT_EQ(r.tcb.entry_points[0], "bootEntry");
    EXPECT_EQ(r.tcb.total_functions, 3u);
    std::vector<std::string> names;
    for (const auto &fn : r.tcb.functions) {
        names.push_back(fn.name);
        EXPECT_EQ(fn.module, "boot/entry");
        EXPECT_GT(fn.loc, 0u);
    }
    EXPECT_EQ(names,
              (std::vector<std::string>{"bootEntry", "leafStep",
                                        "middleStep"}));
}

TEST(LintTcb, BannedModuleReachReportedAtBoundaryCall)
{
    TempTree tree;
    tree.write("boot/entry.cc", R"(
namespace t {

int
bootEntry(int x) SEVF_TCB
{
    return inflate(x);
}

} // namespace t
)");
    tree.write("zip/inflate.cc", R"(
namespace t {

int
inflateInner(int x)
{
    return x * 2;
}

int
inflate(int x)
{
    return inflateInner(x);
}

} // namespace t
)");
    sevf::lint::TcbBudget budget;
    budget.banned_modules.push_back("zip");
    std::vector<Violation> vs = lintFull(tree, budget).violations;
    // Only the boundary crossing is reported, not every banned-module
    // function the closure goes on to reach.
    ASSERT_EQ(countRule(vs, "tcb-reach"), 1u);
    for (const Violation &v : vs) {
        if (v.rule == "tcb-reach") {
            EXPECT_EQ(v.file, "boot/entry.cc");
            EXPECT_NE(v.message.find("inflate"), std::string::npos);
        }
    }
}

TEST(LintTcb, BudgetOverflowFlagged)
{
    TempTree tree;
    tree.write("a.cc", kTcbEntryTree);
    sevf::lint::TcbBudget functions_budget;
    functions_budget.max_functions = 2;
    EXPECT_EQ(countRule(lintFull(tree, functions_budget).violations,
                        "tcb-budget"),
              1u);
    sevf::lint::TcbBudget loc_budget;
    loc_budget.max_loc = 3;
    EXPECT_EQ(
        countRule(lintFull(tree, loc_budget).violations, "tcb-budget"),
        1u);
    sevf::lint::TcbBudget roomy;
    roomy.max_functions = 50;
    roomy.max_loc = 500;
    EXPECT_TRUE(lintFull(tree, roomy).violations.empty());
}

TEST(LintTcb, ExemptFunctionPrunesClosure)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
behindBoundary(int x)
{
    return x * 3;
}

int
boundary(int x) SEVF_TCB_EXEMPT
{
    return behindBoundary(x);
}

int
bootEntry(int x) SEVF_TCB
{
    return boundary(x);
}

} // namespace t
)");
    sevf::lint::RunResult r = lintFull(tree);
    EXPECT_TRUE(r.violations.empty());
    // boundary is recorded as exempt-reached; nothing behind it is
    // inventoried.
    ASSERT_EQ(r.tcb.exempt.size(), 1u);
    EXPECT_EQ(r.tcb.exempt[0], "boundary");
    EXPECT_EQ(r.tcb.total_functions, 1u);
}

TEST(LintTcb, StaleExemptIsAnError)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
neverReached(int x) SEVF_TCB_EXEMPT
{
    return x;
}

int
bootEntry(int x) SEVF_TCB
{
    return x + 1;
}

} // namespace t
)");
    std::vector<Violation> vs = lintFull(tree).violations;
    ASSERT_EQ(countRule(vs, "unused-suppression"), 1u);
    for (const Violation &v : vs) {
        if (v.rule == "unused-suppression") {
            EXPECT_NE(v.message.find("neverReached"), std::string::npos);
        }
    }
}

TEST(LintTcb, ExemptModulePrunesTraversal)
{
    TempTree tree;
    tree.write("boot/entry.cc", R"(
namespace t {

int
bootEntry(int x) SEVF_TCB
{
    return probe(x);
}

} // namespace t
)");
    tree.write("obs/probe.cc", R"(
namespace t {

int
probeInner(int x)
{
    return x - 1;
}

int
probe(int x)
{
    return probeInner(x);
}

} // namespace t
)");
    sevf::lint::TcbBudget budget;
    budget.exempt_modules.push_back("obs");
    sevf::lint::RunResult r = lintFull(tree, budget);
    EXPECT_TRUE(r.violations.empty());
    ASSERT_EQ(r.tcb.exempt.size(), 1u);
    EXPECT_EQ(r.tcb.exempt[0], "probe");
    EXPECT_EQ(r.tcb.total_functions, 1u);
}

TEST(LintTcb, DynamicAllocationInClosureFlagged)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
grabInTcb(unsigned long n) SEVF_TCB
{
    void *p = malloc(n);
    free(p);
    return p != 0;
}

int
grabOutside(unsigned long n)
{
    void *p = malloc(n);
    free(p);
    return p != 0;
}

} // namespace t
)");
    std::vector<Violation> vs = lintFull(tree).violations;
    // malloc and free each trip, but only in the function inside the
    // closure.
    ASSERT_EQ(countRule(vs, "tcb-construct"), 2u);
    for (const Violation &v : vs) {
        if (v.rule == "tcb-construct") {
            EXPECT_NE(v.message.find("grabInTcb"), std::string::npos);
        }
    }
}

TEST(LintTcb, BannedApiCallFlagged)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
formatInTcb(char *buf, int v) SEVF_TCB
{
    return sprintf(buf, "%d", v);
}

} // namespace t
)");
    sevf::lint::TcbBudget budget;
    budget.banned_apis.push_back("sprintf");
    EXPECT_EQ(countRule(lintFull(tree, budget).violations,
                        "tcb-construct"),
              1u);
    EXPECT_TRUE(lintFull(tree).violations.empty());
}

TEST(LintTcb, CallGraphCycleFlagged)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int pong(int n);

int
ping(int n) SEVF_TCB
{
    if (n <= 0) {
        return 0;
    }
    return pong(n - 1);
}

int
pong(int n)
{
    return ping(n);
}

} // namespace t
)");
    std::vector<Violation> vs = lintFull(tree).violations;
    EXPECT_GE(countRule(vs, "tcb-recursion"), 1u);
}

// ---- untrusted-input bounds ----------------------------------------------

TEST(LintBounds, UncheckedOffsetFlaggedCheckedClean)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
readUnchecked(const unsigned char *data, unsigned long off)
    SEVF_UNTRUSTED_INPUT
{
    return data[off];
}

int
readChecked(const unsigned char *data, unsigned long len,
            unsigned long off) SEVF_UNTRUSTED_INPUT
{
    if (off + 1 > len) {
        return -1;
    }
    return data[off];
}

int
readUnannotated(const unsigned char *data, unsigned long off)
{
    return data[off];
}

} // namespace t
)");
    std::vector<Violation> vs = lintFull(tree).violations;
    ASSERT_EQ(countRule(vs, "untrusted-bounds"), 1u);
    for (const Violation &v : vs) {
        if (v.rule == "untrusted-bounds") {
            EXPECT_NE(v.message.find("readUnchecked"), std::string::npos);
            EXPECT_NE(v.message.find("'off'"), std::string::npos);
        }
    }
}

TEST(LintBounds, ClampIdiomCountsAsGuard)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

unsigned long
copyClamped(unsigned char *dst, const unsigned char *payload,
            unsigned long avail, unsigned long want) SEVF_UNTRUSTED_INPUT
{
    unsigned long n = std::min(want, avail);
    memcpy(dst, payload, n);
    return n;
}

} // namespace t
)");
    EXPECT_TRUE(lintFull(tree).violations.empty());
}

TEST(LintBounds, SubspanAndCopyCallsAreSites)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
sliceFrame(ByteSpan frame, unsigned long body_off, unsigned long body_len)
    SEVF_UNTRUSTED_INPUT
{
    auto body = frame.subspan(body_off, body_len);
    return body.size();
}

} // namespace t
)");
    std::vector<Violation> vs = lintFull(tree).violations;
    EXPECT_GE(countRule(vs, "untrusted-bounds"), 1u);
}

TEST(LintBounds, SuppressionConsumedAndStaleOnePersists)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
readAudited(const unsigned char *data, unsigned long off)
    SEVF_UNTRUSTED_INPUT
{
    return data[off]; // sevf_lint: allow(untrusted-bounds)
}

} // namespace t
)");
    EXPECT_TRUE(lintFull(tree).violations.empty());
}

// ---- JSON rendering ------------------------------------------------------

TEST(LintJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(sevf::lint::jsonEscape("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
    EXPECT_EQ(sevf::lint::jsonEscape(std::string(1, '\x02')), "\\u0002");
}

TEST(LintJson, TcbInventoryRenderIsDeterministic)
{
    TempTree tree;
    tree.write("boot/entry.cc", kTcbEntryTree);
    sevf::lint::RunResult r1 = lintFull(tree);
    sevf::lint::RunResult r2 = lintFull(tree);
    std::string json = sevf::lint::renderTcbJson(r1.tcb);
    EXPECT_EQ(json, sevf::lint::renderTcbJson(r2.tcb));
    EXPECT_NE(json.find("\"entry_points\": [\"bootEntry\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"module\": \"boot/entry\""), std::string::npos);
    EXPECT_NE(json.find("\"total_functions\": 3"), std::string::npos);
}

TEST(LintJson, ReportJsonCarriesViolationsAndInventory)
{
    TempTree tree;
    tree.write("a.cc", R"(
namespace t {

int
readUnchecked(const unsigned char *data, unsigned long off)
    SEVF_UNTRUSTED_INPUT
{
    return data[off];
}

} // namespace t
)");
    sevf::lint::RunResult r = lintFull(tree);
    std::string json = sevf::lint::renderReportJson(r);
    EXPECT_NE(json.find("\"violations\": ["), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"untrusted-bounds\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tcb\": {"), std::string::npos);
}

} // namespace

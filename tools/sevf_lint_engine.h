/**
 * @file
 * The sevf_lint engine: parsing, the cross-TU program model, and every
 * lint pass, factored out of the CLI so the gtest suite can drive the
 * same code paths (tests/lint_test.cc).
 *
 * Layering:
 *
 *   FileParser      one file -> FileModel: a scope-tracking scan of the
 *                   scrubbed text that recovers structs (fields, mutex
 *                   members, SEVF_GUARDED_BY guards), functions
 *                   (signature annotations, parameters, local reference
 *                   bindings), and per-statement facts (text, lockset
 *                   held, acquisitions, calls, returns).
 *   GlobalModel     all FileModels -> cross-TU symbol table (structs by
 *                   canonical name, functions by base/qualified name),
 *                   transitive lock-acquisition summaries (fixed point
 *                   over the call graph), and secret-flow summaries
 *                   (secret-returning and sink-forwarding functions,
 *                   both computed to a fixed point).
 *   Passes          per-file rules (header-guard, include-path,
 *                   banned-construct, cc-h-pairing, unguarded-result,
 *                   unused-suppression), the concurrency passes
 *                   (guarded-by, lock-order), the secret-flow pass
 *                   (intra- and interprocedural), and the root-of-trust
 *                   audit (TCB reachability/budget, banned constructs
 *                   and call cycles inside the closure, untrusted-input
 *                   bounds checking).
 *
 * Canonical lock names are "<Struct>::<member>" (namespaces omitted,
 * nested/out-of-line struct names kept: "ThreadPool::Impl::mu"); the
 * same spelling is used by tools/lock-order.txt. Expressions that do
 * not resolve to a canonical name are matched by base name for
 * guarded-by and *excluded* from lock-order edges, so ambiguity can
 * produce a false negative but never a false cycle.
 *
 * The runner itself dogfoods base/parallel.h: files are parsed and the
 * per-file passes run on a ThreadPool, with per-pass wall times
 * reported through RunResult::stats (--stats in the CLI).
 *
 * base/mutex.h and base/thread_annotations.h are exempt from the
 * concurrency passes: they implement the primitives the passes reason
 * about. SEVF_NO_THREAD_SAFETY_ANALYSIS exempts a function from
 * guarded-by (field and REQUIRES checks) only - its acquisitions still
 * feed lock-order, which is about whole-program ordering.
 *
 * The root-of-trust audit (base/trust_zones.h) computes the transitive
 * callee closure of every SEVF_TCB entry point over the same resolved
 * call graph. resolveCall's conservatism cuts both ways here: an
 * ambiguous callee never joins the closure, so the inventory is a
 * lower bound - which is why banned modules and banned constructs are
 * enforced on top of the budget, and why entry points live on
 * definitions (the parser models bodies, not declarations).
 */
#ifndef SEVF_TOOLS_SEVF_LINT_ENGINE_H_
#define SEVF_TOOLS_SEVF_LINT_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <locale>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/parallel.h"

namespace sevf::lint {

namespace fs = std::filesystem;

struct Violation {
    std::string file; //!< path relative to the lint root
    size_t line;      //!< 1-based
    std::string rule;
    std::string message;
};

struct FileText {
    std::vector<std::string> raw;      //!< original lines
    std::vector<std::string> scrubbed; //!< comments + literals blanked
};

/**
 * Blank out //, multi-line comments, and string/char literals while
 * preserving line structure, so construct scans don't fire on prose
 * like "no exceptions are thrown here".
 */
inline std::vector<std::string>
scrub(const std::vector<std::string> &lines)
{
    std::vector<std::string> out;
    out.reserve(lines.size());
    bool in_block_comment = false;
    for (const std::string &line : lines) {
        std::string s;
        s.reserve(line.size());
        for (size_t i = 0; i < line.size(); ++i) {
            if (in_block_comment) {
                if (line[i] == '*' && i + 1 < line.size() &&
                    line[i + 1] == '/') {
                    in_block_comment = false;
                    ++i;
                }
                s.push_back(' ');
                continue;
            }
            if (line[i] == '/' && i + 1 < line.size()) {
                if (line[i + 1] == '/') {
                    break; // rest of line is a comment
                }
                if (line[i + 1] == '*') {
                    in_block_comment = true;
                    s.push_back(' ');
                    ++i;
                    continue;
                }
            }
            if (line[i] == '"' || line[i] == '\'') {
                char quote = line[i];
                s.push_back(quote);
                ++i;
                while (i < line.size()) {
                    if (line[i] == '\\') {
                        i += 2;
                        continue;
                    }
                    if (line[i] == quote) {
                        break;
                    }
                    ++i;
                }
                s.push_back(quote);
                continue;
            }
            s.push_back(line[i]);
        }
        out.push_back(std::move(s));
    }
    return out;
}

inline std::optional<FileText>
loadFile(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        return std::nullopt;
    }
    FileText text;
    std::string line;
    while (std::getline(in, line)) {
        text.raw.push_back(line);
    }
    text.scrubbed = scrub(text.raw);
    return text;
}

inline bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Does @p line contain @p word with identifier boundaries? */
inline bool
containsWord(const std::string &line, const std::string &word)
{
    size_t pos = 0;
    while ((pos = line.find(word, pos)) != std::string::npos) {
        bool left_ok = pos == 0 || !isIdentChar(line[pos - 1]);
        size_t end = pos + word.size();
        bool right_ok = end >= line.size() || !isIdentChar(line[end]);
        if (left_ok && right_ok) {
            return true;
        }
        ++pos;
    }
    return false;
}

/** Does @p line call @p fn (name followed by an open paren)? */
inline bool
callsFunction(const std::string &line, const std::string &fn)
{
    size_t pos = 0;
    while ((pos = line.find(fn, pos)) != std::string::npos) {
        bool left_ok = pos == 0 || !isIdentChar(line[pos - 1]);
        size_t end = pos + fn.size();
        while (end < line.size() &&
               std::isspace(static_cast<unsigned char>(line[end]))) {
            ++end;
        }
        if (left_ok && end < line.size() && line[end] == '(') {
            return true;
        }
        ++pos;
    }
    return false;
}

/** Index of the ')' matching the '(' at @p open, or npos. */
inline size_t
matchParenAt(const std::string &s, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
        if (s[i] == '(') {
            ++depth;
        } else if (s[i] == ')') {
            if (--depth == 0) {
                return i;
            }
        }
    }
    return std::string::npos;
}

inline std::string
upperIdent(std::string s)
{
    for (char &c : s) {
        c = (c == '.' || c == '/' || c == '-')
                ? '_'
                : static_cast<char>(
                      std::toupper(static_cast<unsigned char>(c)));
    }
    return s;
}

inline std::string
trimCopy(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos) {
        return "";
    }
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Collapse runs of whitespace to single spaces (statement texts). */
inline std::string
collapseWs(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    bool in_space = false;
    for (char c : s) {
        if (c == ' ' || c == '\t') {
            in_space = true;
            continue;
        }
        if (in_space && !out.empty()) {
            out.push_back(' ');
        }
        in_space = false;
        out.push_back(c);
    }
    return out;
}

/** Split @p s on top-level commas (paren/angle/brace depth 0). */
inline std::vector<std::string>
splitTopCommas(const std::string &s)
{
    std::vector<std::string> out;
    int paren = 0;
    int angle = 0;
    int brace = 0;
    std::string cur;
    for (char c : s) {
        if (c == '(') {
            ++paren;
        } else if (c == ')') {
            --paren;
        } else if (c == '<') {
            ++angle;
        } else if (c == '>') {
            angle = std::max(0, angle - 1);
        } else if (c == '{') {
            ++brace;
        } else if (c == '}') {
            --brace;
        } else if (c == ',' && paren == 0 && angle == 0 && brace == 0) {
            out.push_back(trimCopy(cur));
            cur.clear();
            continue;
        }
        cur.push_back(c);
    }
    if (!trimCopy(cur).empty()) {
        out.push_back(trimCopy(cur));
    }
    return out;
}

/**
 * Last plain type token of a declaration prefix: template arguments
 * stripped, cv/ref/pointer decoration dropped, namespace qualifiers
 * removed ("const std::map<u64, Segment> &" -> "map",
 * "base::Mutex" -> "Mutex", "Impl *" -> "Impl").
 */
inline std::string
lastTypeToken(const std::string &decl)
{
    std::string flat;
    int angle = 0;
    for (char c : decl) {
        if (c == '<') {
            ++angle;
            continue;
        }
        if (c == '>') {
            angle = std::max(0, angle - 1);
            continue;
        }
        if (angle == 0) {
            flat.push_back(c);
        }
    }
    static const std::set<std::string> kCv = {
        "const",  "volatile", "mutable", "static", "constexpr",
        "struct", "class",    "typename", "inline", "unsigned",
        "signed", "auto",     "register", "thread_local",
    };
    std::string last;
    std::string cur;
    auto flush = [&]() {
        if (!cur.empty() && kCv.find(cur) == kCv.end()) {
            size_t sep = cur.rfind("::");
            last = sep == std::string::npos ? cur : cur.substr(sep + 2);
        }
        cur.clear();
    };
    for (char c : flat) {
        if (isIdentChar(c) || c == ':') {
            cur.push_back(c);
        } else {
            flush();
        }
    }
    flush();
    return last;
}

/** Functions whose return value is secret by project policy. */
inline const char *const kDefaultSecretSources[] = {
    "dhSharedKey", // DH channel keys
    "open",        // unsealed launch secrets (crypto/seal.h)
    "keyFor",      // chip signing keys out of the KDS
};

/** Host-visible logging/serialization sinks for the secret-flow rules. */
inline const char *const kSecretSinks[] = {
    "inform", "warn", "record", "recordData", "addItem", "addItemAt",
    "toHex",  "render", "toJson",
};

// ---- Program model -------------------------------------------------------

struct FieldDecl {
    std::string name;
    std::string type_token; //!< lastTypeToken of the declared type
    std::string guard_expr; //!< SEVF_GUARDED_BY/PT_GUARDED_BY argument
    bool is_mutex = false;
    size_t line = 0;
};

struct StructDecl {
    std::string canonical; //!< "Shard", "ThreadPool::Impl", ...
    std::string file;      //!< lint-root-relative path of the definition
    size_t line = 0;
    std::vector<FieldDecl> fields;

    const FieldDecl *
    field(const std::string &name) const
    {
        for (const FieldDecl &f : fields) {
            if (f.name == name) {
                return &f;
            }
        }
        return nullptr;
    }
};

/** One lock acquisition with the lockset held just before it. */
struct AcquireSite {
    std::string expr; //!< raw text, e.g. "impl_->mu", "shard.mu", "mu"
    size_t line = 0;
    std::vector<std::string> held_before;
};

struct CallRec {
    std::string name;      //!< last-component callee name
    std::string qualifier; //!< "base::" style prefix, may be empty
    std::string receiver;  //!< "impl_", "cache", "" free, "?" complex
    std::vector<std::string> args;
    size_t line = 0;
    std::vector<std::string> held;
};

struct StmtRec {
    std::string text; //!< scrubbed, whitespace-collapsed statement
    size_t line = 0;  //!< line the statement started on
    std::vector<std::string> held;
};

struct FunctionDecl {
    std::string base;        //!< "parallelFor"
    std::string name_prefix; //!< "ThreadPool" from "ThreadPool::parallelFor"
    std::string struct_name; //!< enclosing struct canonical, or "" for free
    std::string file;
    size_t line = 0;
    size_t end_line = 0; //!< closing-brace line (0 until the body ends)
    bool no_tsa = false;
    bool tcb_entry = false;       //!< SEVF_TCB on the definition
    bool untrusted_input = false; //!< SEVF_UNTRUSTED_INPUT
    bool tcb_exempt = false;      //!< SEVF_TCB_EXEMPT
    std::vector<std::string> requires_exprs;
    std::vector<std::string> excludes_exprs;
    std::vector<std::pair<std::string, std::string>> params; //!< name, type
    std::vector<std::string> pointer_params; //!< params declared with '*'
    std::vector<std::pair<std::string, std::string>> locals; //!< name, type
    std::vector<AcquireSite> acquires;
    std::vector<CallRec> calls;
    std::vector<StmtRec> stmts;
    std::vector<std::pair<std::string, size_t>> returns; //!< expr, line

    std::string
    display() const
    {
        std::string scope =
            !struct_name.empty() ? struct_name : name_prefix;
        return scope.empty() ? base : scope + "::" + base;
    }

    const std::string *
    paramType(const std::string &name) const
    {
        for (const auto &[n, t] : params) {
            if (n == name) {
                return &t;
            }
        }
        return nullptr;
    }

    const std::string *
    localType(const std::string &name) const
    {
        for (const auto &[n, t] : locals) {
            if (n == name) {
                return &t;
            }
        }
        return nullptr;
    }
};

struct FileModel {
    fs::path path;
    std::string rel;
    FileText text;
    bool loaded = false;
    /** base/mutex.h + base/thread_annotations.h implement the
     *  primitives; their internals are exempt from concurrency passes. */
    bool exempt_concurrency = false;
    std::vector<StructDecl> structs;
    std::vector<FunctionDecl> functions;
    std::vector<Violation> violations;
    /** (marker line, rule) pairs consumed by suppression checks. */
    std::vector<std::pair<size_t, std::string>> used_markers;
};

// ---- File parser ---------------------------------------------------------

/**
 * Scope-tracking scan of one scrubbed file. Statements are accumulated
 * between ';'/'{'/'}' boundaries (so multi-line statements are seen
 * whole), braces are classified into namespace/struct/enum/function/
 * block scopes from the pending declaration text, and brace
 * initializers ("value{0}", "= {...}", "Segment{...}") are recognized
 * so they do not open scopes. Matched to the project style (leading
 * return types, bodies opened by a brace on its own line) but tolerant
 * of single-line inline bodies.
 */
class FileParser
{
  public:
    explicit FileParser(FileModel &model) : model_(model) {}

    void
    parse()
    {
        for (size_t i = 0; i < model_.text.scrubbed.size(); ++i) {
            line_no_ = i + 1;
            const std::string &line = model_.text.scrubbed[i];
            std::string trimmed = trimCopy(line);
            if (!trimmed.empty() && trimmed[0] == '#') {
                if (init_depth_ == 0 && paren_depth_ == 0) {
                    resetPending();
                }
                continue;
            }
            for (char c : line) {
                feed(c);
            }
            appendPending(' ');
        }
    }

  private:
    struct Scope {
        enum Kind { kNamespace, kStruct, kEnum, kFunction, kBlock } kind;
        std::string name;    //!< struct canonical for kStruct
        int func = -1;       //!< FunctionDecl index for kFunction
        int entry_paren = 0; //!< paren_depth_ to restore on pop
    };

    struct HeldLock {
        std::string expr;
        size_t level;       //!< scopes_.size() at acquisition
        bool manual;        //!< .lock()/.unlock() pair, not RAII
    };

    void
    resetPending()
    {
        pending_.clear();
        pending_line_ = 0;
    }

    void
    appendPending(char c)
    {
        if (pending_line_ == 0 && c != ' ' && c != '\t') {
            pending_line_ = line_no_;
        }
        pending_.push_back(c == '\t' ? ' ' : c);
    }

    int
    currentFunction() const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            if (it->kind == Scope::kFunction) {
                return it->func;
            }
            if (it->kind == Scope::kStruct ||
                it->kind == Scope::kNamespace) {
                break;
            }
        }
        return -1;
    }

    const Scope *
    innermostStruct() const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            if (it->kind == Scope::kStruct) {
                return &*it;
            }
        }
        return nullptr;
    }

    bool
    inStructScope() const
    {
        return !scopes_.empty() && scopes_.back().kind == Scope::kStruct;
    }

    void
    feed(char c)
    {
        if (init_depth_ > 0) {
            if (c == '{') {
                ++init_depth_;
            } else if (c == '}') {
                --init_depth_;
            }
            appendPending(c);
            return;
        }
        switch (c) {
        case '(':
            ++paren_depth_;
            appendPending(c);
            return;
        case ')':
            paren_depth_ = std::max(0, paren_depth_ - 1);
            appendPending(c);
            return;
        case ';':
            if (paren_depth_ > 0) {
                appendPending(c); // for-loop header
                return;
            }
            handleSemicolon();
            return;
        case ':':
            handleColon();
            return;
        case '{':
            handleOpenBrace();
            return;
        case '}':
            handleCloseBrace();
            return;
        default:
            appendPending(c);
            return;
        }
    }

    void
    handleColon()
    {
        std::string t = trimCopy(pending_);
        // Access specifiers and case labels would otherwise contaminate
        // the next statement's pending text.
        if (t == "public" || t == "private" || t == "protected") {
            resetPending();
            return;
        }
        if (currentFunction() >= 0 && paren_depth_ == 0 &&
            (t.rfind("case ", 0) == 0 || t == "default")) {
            resetPending();
            return;
        }
        appendPending(':');
    }

    void
    handleSemicolon()
    {
        std::string t = collapseWs(trimCopy(pending_));
        size_t line = pending_line_ ? pending_line_ : line_no_;
        resetPending();
        if (t.empty()) {
            return;
        }
        int fn = currentFunction();
        if (fn >= 0) {
            processStatement(t, line, fn);
        } else if (inStructScope()) {
            processStructMember(t, line);
        }
        // Namespace/global-scope declarations are not modeled.
    }

    static bool
    isControlKeyword(const std::string &tok)
    {
        static const std::set<std::string> kCtl = {
            "if", "else", "for", "while", "do", "switch", "try", "catch",
        };
        return kCtl.find(tok) != kCtl.end();
    }

    static std::string
    firstToken(const std::string &s)
    {
        size_t b = 0;
        while (b < s.size() && !isIdentChar(s[b])) {
            ++b;
        }
        size_t e = b;
        while (e < s.size() && isIdentChar(s[e])) {
            ++e;
        }
        return s.substr(b, e - b);
    }

    void
    handleOpenBrace()
    {
        std::string t = collapseWs(trimCopy(pending_));
        size_t line = pending_line_ ? pending_line_ : line_no_;
        std::string tok = firstToken(t);
        int fn = currentFunction();
        char last = t.empty() ? '\0' : t.back();

        if (t.empty()) {
            pushScope({Scope::kBlock, "", -1, paren_depth_});
            resetPending();
            return;
        }
        if (tok == "namespace" || containsWord(t, "namespace")) {
            std::string name;
            size_t pos = t.find("namespace");
            if (pos != std::string::npos) {
                name = trimCopy(t.substr(pos + 9));
            }
            pushScope({Scope::kNamespace, name, -1, paren_depth_});
            resetPending();
            return;
        }
        if (containsWord(t, "enum")) {
            pushScope({Scope::kEnum, "", -1, paren_depth_});
            resetPending();
            return;
        }
        if (containsWord(t, "struct") || containsWord(t, "class") ||
            containsWord(t, "union")) {
            pushScope({Scope::kStruct, structCanonical(t), -1,
                       paren_depth_});
            resetPending();
            return;
        }
        if (isControlKeyword(tok)) {
            if (fn >= 0) {
                processStatement(t, line, fn);
            }
            pushScope({Scope::kBlock, "", -1, paren_depth_});
            resetPending();
            return;
        }
        if (t.find('(') != std::string::npos) {
            if (fn >= 0) {
                // Lambda body vs. aggregate init inside an argument
                // list: only a lambda introducer at the tail -
                // "[..](..)", optionally mutable/noexcept/-> type -
                // opens a block. Anything else (Foo{...} in a call)
                // keeps accumulating so the whole statement, inner
                // calls included, is seen at its ';'.
                static const std::regex lambda_tail_re(
                    "\\[[^\\[\\]]*\\]\\s*(\\([^()]*\\))?\\s*(mutable)?"
                    "\\s*(noexcept)?\\s*(->[^{]*)?$");
                if (std::regex_search(t, lambda_tail_re)) {
                    // Record the pending text first - it may contain
                    // calls and acquisitions.
                    processStatement(t, line, fn);
                    pushScope({Scope::kBlock, "", -1, paren_depth_});
                    // The lambda usually sits inside an unbalanced
                    // argument list; statements in its body must still
                    // terminate at ';'. entry_paren restores the
                    // caller's depth at the closing brace.
                    paren_depth_ = 0;
                    resetPending();
                    return;
                }
            } else if (paren_depth_ == 0) {
                int idx = beginFunction(t, line);
                pushScope({Scope::kFunction, "", idx, paren_depth_});
                resetPending();
                return;
            }
        }
        // Brace initializer ("value{0}", "= {", "return {", or inside
        // an argument list): keep accumulating, no scope.
        (void)last;
        ++init_depth_;
        appendPending('{');
    }

    void
    handleCloseBrace()
    {
        resetPending();
        if (scopes_.empty()) {
            return;
        }
        Scope popped = scopes_.back();
        scopes_.pop_back();
        paren_depth_ = popped.entry_paren;
        size_t new_level = scopes_.size();
        held_.erase(std::remove_if(held_.begin(), held_.end(),
                                   [&](const HeldLock &h) {
                                       return !h.manual &&
                                              h.level > new_level;
                                   }),
                    held_.end());
        if (popped.kind == Scope::kFunction) {
            held_.erase(std::remove_if(held_.begin(), held_.end(),
                                       [&](const HeldLock &h) {
                                           return h.level > new_level;
                                       }),
                        held_.end());
            if (popped.func >= 0) {
                model_.functions[popped.func].end_line = line_no_;
            }
        }
    }

    void
    pushScope(Scope s)
    {
        scopes_.push_back(std::move(s));
    }

    /** Canonical name for a struct introduced by declaration text @p t. */
    std::string
    structCanonical(const std::string &t)
    {
        // Name: last "::"-qualified identifier before any base-clause
        // colon, skipping decoration like alignas(64) / SEVF_CAPABILITY.
        std::string head = t;
        for (size_t i = 1; i + 1 < head.size(); ++i) {
            if (head[i] == ':' && head[i - 1] != ':' &&
                head[i + 1] != ':') {
                head = head.substr(0, i);
                break;
            }
        }
        std::string name;
        std::string cur;
        for (size_t i = 0; i <= head.size(); ++i) {
            char c = i < head.size() ? head[i] : ' ';
            if (isIdentChar(c) || c == ':') {
                cur.push_back(c);
            } else {
                if (!cur.empty() && cur != "struct" && cur != "class" &&
                    cur != "union" && cur != "final" &&
                    cur.rfind("SEVF_", 0) != 0 && cur != "alignas") {
                    name = cur;
                }
                cur.clear();
            }
        }
        while (!name.empty() && name.front() == ':') {
            name.erase(name.begin());
        }
        if (name.empty()) {
            name = "<anon" + std::to_string(++anon_counter_) + ">";
        }
        if (name.find("::") == std::string::npos) {
            if (const Scope *outer = innermostStruct()) {
                name = outer->name + "::" + name;
            }
        }
        model_.structs.push_back({name, model_.rel, line_no_, {}});
        struct_index_[name] = model_.structs.size() - 1;
        return name;
    }

    // ---- struct members --------------------------------------------------

    void
    processStructMember(const std::string &t, size_t line)
    {
        const Scope *s = innermostStruct();
        if (s == nullptr) {
            return;
        }
        FieldDecl field;
        field.line = line;
        static const std::regex guard_re(
            "SEVF_(?:PT_)?GUARDED_BY\\(([^()]*)\\)");
        std::smatch m;
        std::string text = t;
        if (std::regex_search(text, m, guard_re)) {
            field.guard_expr = trimCopy(m[1].str());
        }
        // Strip annotations (before the paren test below - the guard
        // argument is parenthesized), then default initializers and
        // brace/array suffixes.
        static const std::regex ann_re("SEVF_\\w+(\\([^()]*\\))?");
        text = std::regex_replace(text, ann_re, " ");
        if (text.find('(') != std::string::npos) {
            return; // method declaration / function pointer / using
        }
        std::string tok = firstToken(text);
        if (tok == "struct" || tok == "class" || tok == "union" ||
            tok == "using" || tok == "typedef" || tok == "friend" ||
            tok == "enum") {
            return;
        }
        size_t eq = findTopLevel(text, '=');
        if (eq != std::string::npos) {
            text = text.substr(0, eq);
        }
        size_t brace = text.find('{');
        if (brace != std::string::npos) {
            text = text.substr(0, brace);
        }
        static const std::regex arr_re("\\[[^\\]]*\\]");
        text = std::regex_replace(text, arr_re, " ");
        text = trimCopy(text);
        // Field name: last identifier; type: everything before it.
        size_t end = text.size();
        while (end > 0 && !isIdentChar(text[end - 1])) {
            --end;
        }
        size_t begin = end;
        while (begin > 0 && isIdentChar(text[begin - 1])) {
            --begin;
        }
        if (begin == end) {
            return;
        }
        field.name = text.substr(begin, end - begin);
        std::string type = text.substr(0, begin);
        field.type_token = lastTypeToken(type);
        if (field.type_token.empty() || field.name == field.type_token) {
            return; // unnamed or unparseable
        }
        field.is_mutex = field.type_token == "Mutex" ||
                         field.type_token == "mutex" ||
                         field.type_token == "recursive_mutex";
        model_.structs[struct_index_.at(s->name)].fields.push_back(
            std::move(field));
    }

    static size_t
    findTopLevel(const std::string &s, char target)
    {
        int paren = 0;
        int angle = 0;
        for (size_t i = 0; i < s.size(); ++i) {
            char c = s[i];
            if (c == '(') {
                ++paren;
            } else if (c == ')') {
                --paren;
            } else if (c == '<') {
                ++angle;
            } else if (c == '>') {
                angle = std::max(0, angle - 1);
            } else if (c == target && paren == 0 && angle == 0) {
                if (target == '=' &&
                    ((i + 1 < s.size() && s[i + 1] == '=') ||
                     (i > 0 && (s[i - 1] == '=' || s[i - 1] == '!' ||
                                s[i - 1] == '<' || s[i - 1] == '>' ||
                                s[i - 1] == '+' || s[i - 1] == '-' ||
                                s[i - 1] == '*' || s[i - 1] == '/' ||
                                s[i - 1] == '|' || s[i - 1] == '&' ||
                                s[i - 1] == '^' || s[i - 1] == '%')))) {
                    continue;
                }
                return i;
            }
        }
        return std::string::npos;
    }

    // ---- function signatures ---------------------------------------------

    int
    beginFunction(const std::string &sig, size_t line)
    {
        FunctionDecl fn;
        fn.file = model_.rel;
        fn.line = line;
        size_t open = sig.find('(');
        // Name: identifier (possibly ::-qualified, possibly ~dtor)
        // immediately before the first paren.
        size_t end = open;
        while (end > 0 &&
               std::isspace(static_cast<unsigned char>(sig[end - 1]))) {
            --end;
        }
        size_t begin = end;
        while (begin > 0 && (isIdentChar(sig[begin - 1]) ||
                             sig[begin - 1] == ':' ||
                             sig[begin - 1] == '~')) {
            --begin;
        }
        std::string full = sig.substr(begin, end - begin);
        size_t sep = full.rfind("::");
        if (sep != std::string::npos) {
            fn.name_prefix = full.substr(0, sep);
            fn.base = full.substr(sep + 2);
        } else {
            fn.base = full;
        }
        if (fn.base.empty()) {
            fn.base = "<lambda>";
        }
        if (const Scope *s = innermostStruct()) {
            fn.struct_name = s->name;
        }
        // Parameters from the first balanced paren group.
        size_t close = matchParen(sig, open);
        std::string params_text =
            close != std::string::npos
                ? sig.substr(open + 1, close - open - 1)
                : "";
        for (const std::string &piece : splitTopCommas(params_text)) {
            std::string p = piece;
            size_t eq = findTopLevel(p, '=');
            if (eq != std::string::npos) {
                p = p.substr(0, eq);
            }
            p = trimCopy(p);
            size_t pe = p.size();
            while (pe > 0 && !isIdentChar(p[pe - 1])) {
                --pe;
            }
            size_t pb = pe;
            while (pb > 0 && isIdentChar(p[pb - 1])) {
                --pb;
            }
            if (pb == pe) {
                continue;
            }
            std::string pname = p.substr(pb, pe - pb);
            std::string ptype = lastTypeToken(p.substr(0, pb));
            if (ptype.empty()) {
                continue; // unnamed parameter: pname was the type
            }
            fn.params.emplace_back(pname, ptype);
            if (p.substr(0, pb).find('*') != std::string::npos) {
                fn.pointer_params.push_back(pname);
            }
        }
        // Annotations live after the parameter list.
        std::string suffix =
            close != std::string::npos ? sig.substr(close) : sig;
        static const std::regex req_re("SEVF_REQUIRES\\(([^()]*)\\)");
        static const std::regex exc_re("SEVF_EXCLUDES\\(([^()]*)\\)");
        auto collect = [](const std::string &text, const std::regex &re,
                          std::vector<std::string> &out) {
            auto it = std::sregex_iterator(text.begin(), text.end(), re);
            for (; it != std::sregex_iterator(); ++it) {
                for (const std::string &e :
                     splitTopCommas((*it)[1].str())) {
                    out.push_back(e);
                }
            }
        };
        collect(suffix, req_re, fn.requires_exprs);
        collect(suffix, exc_re, fn.excludes_exprs);
        fn.no_tsa =
            sig.find("SEVF_NO_THREAD_SAFETY_ANALYSIS") != std::string::npos;
        // Word-boundary matches: SEVF_TCB must not fire inside
        // SEVF_TCB_EXEMPT.
        fn.tcb_entry = containsWord(sig, "SEVF_TCB");
        fn.untrusted_input = containsWord(sig, "SEVF_UNTRUSTED_INPUT");
        fn.tcb_exempt = containsWord(sig, "SEVF_TCB_EXEMPT");
        // REQUIRES locks are held on entry for the whole body.
        model_.functions.push_back(std::move(fn));
        int idx = static_cast<int>(model_.functions.size()) - 1;
        for (const std::string &e :
             model_.functions[idx].requires_exprs) {
            held_.push_back({e, scopes_.size() + 1, false});
        }
        return idx;
    }

    static size_t
    matchParen(const std::string &s, size_t open)
    {
        int depth = 0;
        for (size_t i = open; i < s.size(); ++i) {
            if (s[i] == '(') {
                ++depth;
            } else if (s[i] == ')') {
                if (--depth == 0) {
                    return i;
                }
            }
        }
        return std::string::npos;
    }

    // ---- statements -------------------------------------------------------

    std::vector<std::string>
    heldSnapshot() const
    {
        std::vector<std::string> out;
        out.reserve(held_.size());
        for (const HeldLock &h : held_) {
            out.push_back(h.expr);
        }
        return out;
    }

    void
    processStatement(const std::string &t, size_t line, int fn_idx)
    {
        FunctionDecl &fn = model_.functions[fn_idx];
        recordLocalBinding(t, fn);
        if (t.rfind("return", 0) == 0 &&
            (t.size() == 6 || !isIdentChar(t[6]))) {
            fn.returns.emplace_back(trimCopy(t.substr(6)), line);
        }
        recordAcquisitions(t, line, fn);
        recordCalls(t, line, fn);
        fn.stmts.push_back({t, line, heldSnapshot()});
    }

    void
    recordLocalBinding(const std::string &t, FunctionDecl &fn)
    {
        size_t eq = findTopLevel(t, '=');
        if (eq == std::string::npos) {
            return;
        }
        std::string lhs = trimCopy(t.substr(0, eq));
        // A declaration has a type before the name; an assignment to an
        // existing variable has a single token on the left.
        size_t end = lhs.size();
        while (end > 0 && !isIdentChar(lhs[end - 1])) {
            --end;
        }
        size_t begin = end;
        while (begin > 0 && isIdentChar(lhs[begin - 1])) {
            --begin;
        }
        if (begin == end) {
            return;
        }
        std::string name = lhs.substr(begin, end - begin);
        std::string type = lastTypeToken(lhs.substr(0, begin));
        if (type.empty()) {
            return; // plain assignment
        }
        fn.locals.emplace_back(name, type);
    }

    void
    recordAcquisitions(const std::string &t, size_t line, FunctionDecl &fn)
    {
        static const std::regex raii_re(
            "\\b(?:base::)?(?:MutexLock|std::lock_guard|std::unique_lock|"
            "std::scoped_lock)\\s*(?:<[^<>]*>)?\\s+\\w+\\s*\\(([^()]*)\\)");
        auto it = std::sregex_iterator(t.begin(), t.end(), raii_re);
        for (; it != std::sregex_iterator(); ++it) {
            std::vector<std::string> before = heldSnapshot();
            for (const std::string &e : splitTopCommas((*it)[1].str())) {
                if (e.empty()) {
                    continue;
                }
                fn.acquires.push_back({e, line, before});
                held_.push_back({e, scopes_.size(), false});
            }
        }
        // Manual X.lock() / X->lock() / X.unlock().
        static const std::regex manual_re(
            "([A-Za-z_][\\w.]*(?:->[\\w.]*)*)\\s*(?:\\.|->)\\s*"
            "(lock|unlock)\\s*\\(\\s*\\)");
        auto mt = std::sregex_iterator(t.begin(), t.end(), manual_re);
        for (; mt != std::sregex_iterator(); ++mt) {
            std::string recv = (*mt)[1].str();
            if ((*mt)[2].str() == "lock") {
                fn.acquires.push_back({recv, line, heldSnapshot()});
                held_.push_back({recv, scopes_.size(), true});
            } else {
                for (auto h = held_.rbegin(); h != held_.rend(); ++h) {
                    if (h->expr == recv) {
                        held_.erase(std::next(h).base());
                        break;
                    }
                }
            }
        }
    }

    void
    recordCalls(const std::string &t, size_t line, FunctionDecl &fn)
    {
        static const std::set<std::string> kSkip = {
            "if", "for", "while", "switch", "return", "sizeof", "catch",
            "alignas", "alignof", "decltype", "static_cast",
            "reinterpret_cast", "const_cast", "dynamic_cast", "new",
            "delete", "lock", "unlock", "try_lock", "native",
            "MutexLock", "lock_guard", "unique_lock", "scoped_lock",
            "defined", "assert",
        };
        for (size_t i = 0; i + 1 < t.size(); ++i) {
            if (!isIdentChar(t[i]) || (i > 0 && isIdentChar(t[i - 1]))) {
                continue; // not the start of an identifier
            }
            size_t e = i;
            while (e < t.size() && isIdentChar(t[e])) {
                ++e;
            }
            size_t after = e;
            while (after < t.size() && t[after] == ' ') {
                ++after;
            }
            if (after >= t.size() || t[after] != '(') {
                continue;
            }
            std::string name = t.substr(i, e - i);
            if (kSkip.count(name) || name.rfind("SEVF_", 0) == 0) {
                continue;
            }
            // Qualifier (ns::) and receiver (obj. / obj->) before it.
            std::string qualifier;
            std::string receiver;
            size_t b = i;
            if (b >= 2 && t[b - 1] == ':' && t[b - 2] == ':') {
                size_t qb = b - 2;
                while (qb > 0 &&
                       (isIdentChar(t[qb - 1]) || t[qb - 1] == ':')) {
                    --qb;
                }
                qualifier = t.substr(qb, b - qb);
                b = qb;
            }
            if (qualifier.empty()) {
                size_t rb = b;
                while (rb > 0 &&
                       std::isspace(static_cast<unsigned char>(t[rb - 1]))) {
                    --rb;
                }
                bool dot = rb >= 1 && t[rb - 1] == '.';
                bool arrow = rb >= 2 && t[rb - 2] == '-' && t[rb - 1] == '>';
                if (dot || arrow) {
                    size_t re = rb - (dot ? 1 : 2);
                    size_t rs = re;
                    while (rs > 0 && (isIdentChar(t[rs - 1]) ||
                                      t[rs - 1] == '.' ||
                                      (rs >= 2 && t[rs - 1] == '>' &&
                                       t[rs - 2] == '-'))) {
                        if (rs >= 2 && t[rs - 1] == '>' &&
                            t[rs - 2] == '-') {
                            rs -= 2;
                        } else {
                            --rs;
                        }
                    }
                    receiver = rs < re ? t.substr(rs, re - rs) : "?";
                    if (receiver.empty() ||
                        receiver.find('(') != std::string::npos ||
                        receiver.find(')') != std::string::npos) {
                        receiver = "?";
                    }
                }
            }
            CallRec call;
            call.name = name;
            call.qualifier = qualifier;
            call.receiver = receiver;
            call.line = line;
            call.held = heldSnapshot();
            size_t close = matchParen(t, after);
            if (close != std::string::npos) {
                call.args = splitTopCommas(
                    t.substr(after + 1, close - after - 1));
            }
            fn.calls.push_back(std::move(call));
        }
    }

    FileModel &model_;
    std::vector<Scope> scopes_;
    std::vector<HeldLock> held_;
    std::map<std::string, size_t> struct_index_;
    std::string pending_;
    size_t pending_line_ = 0;
    size_t line_no_ = 0;
    int paren_depth_ = 0;
    int init_depth_ = 0;
    int anon_counter_ = 0;
};

// ---- Global model --------------------------------------------------------

struct GlobalModel {
    std::vector<FileModel> *files = nullptr;
    /** last "::"-component -> candidate struct decls. */
    std::map<std::string, std::vector<const StructDecl *>> structs_by_last;
    std::map<std::string, const StructDecl *> structs_by_canonical;
    std::map<std::string, std::vector<const FunctionDecl *>> fns_by_base;
    /** "<struct canonical>::<base>" -> decl. */
    std::map<std::string, const FunctionDecl *> fns_by_qualified;
    /** Canonical lock names each function may acquire, transitively. */
    std::map<const FunctionDecl *, std::set<std::string>> transitive_acquires;
    std::set<const FunctionDecl *> secret_returning;
    /** Parameter indices that each function forwards into a sink. */
    std::map<const FunctionDecl *, std::set<size_t>> sink_forwarding;

    /**
     * Resolve a struct name reference: exact canonical, then
     * "<context>::name", then by last component preferring a
     * definition in @p file, then a globally unique match.
     */
    const StructDecl *
    resolveStruct(const std::string &name, const std::string &file,
                  const std::string &context_struct) const
    {
        if (name.empty()) {
            return nullptr;
        }
        auto exact = structs_by_canonical.find(name);
        if (exact != structs_by_canonical.end()) {
            return exact->second;
        }
        if (!context_struct.empty()) {
            auto nested =
                structs_by_canonical.find(context_struct + "::" + name);
            if (nested != structs_by_canonical.end()) {
                return nested->second;
            }
        }
        std::string last = name;
        size_t sep = last.rfind("::");
        if (sep != std::string::npos) {
            last = last.substr(sep + 2);
        }
        auto it = structs_by_last.find(last);
        if (it == structs_by_last.end()) {
            return nullptr;
        }
        std::vector<const StructDecl *> cands;
        for (const StructDecl *s : it->second) {
            if (s->canonical == name ||
                s->canonical.size() > name.size() + 1 ||
                s->canonical == last) {
                // Suffix match: "Impl" matches "ThreadPool::Impl".
                if (s->canonical == name || s->canonical == last ||
                    (s->canonical.size() > name.size() &&
                     s->canonical.compare(s->canonical.size() - name.size(),
                                          name.size(), name) == 0 &&
                     s->canonical[s->canonical.size() - name.size() - 1] ==
                         ':')) {
                    cands.push_back(s);
                }
            }
        }
        if (cands.empty()) {
            return nullptr;
        }
        std::vector<const StructDecl *> same_file;
        for (const StructDecl *s : cands) {
            if (s->file == file) {
                same_file.push_back(s);
            }
        }
        if (same_file.size() == 1) {
            return same_file.front();
        }
        if (same_file.empty() && cands.size() == 1) {
            return cands.front();
        }
        return nullptr; // ambiguous
    }

    /** The struct a (possibly qualified) function was declared on. */
    const StructDecl *
    functionStruct(const FunctionDecl &fn) const
    {
        if (!fn.struct_name.empty()) {
            return resolveStruct(fn.struct_name, fn.file, "");
        }
        if (!fn.name_prefix.empty()) {
            return resolveStruct(fn.name_prefix, fn.file, "");
        }
        return nullptr;
    }

    /**
     * Resolve the struct type of a receiver chain like "impl_",
     * "cache.entries" or "d" inside @p fn: locals, then parameters,
     * then fields of the enclosing struct, walking member accesses.
     */
    const StructDecl *
    resolveChain(const std::string &chain, const FunctionDecl &fn) const
    {
        std::vector<std::string> comps = splitChain(chain);
        if (comps.empty()) {
            return nullptr;
        }
        const StructDecl *cur = nullptr;
        const std::string *type = fn.localType(comps[0]);
        if (type == nullptr) {
            type = fn.paramType(comps[0]);
        }
        if (type != nullptr) {
            cur = resolveStruct(*type, fn.file, fn.struct_name);
        } else if (comps[0] == "this") {
            cur = functionStruct(fn);
        } else if (const StructDecl *own = functionStruct(fn)) {
            if (const FieldDecl *f = own->field(comps[0])) {
                cur = resolveStruct(f->type_token, own->file,
                                    own->canonical);
            }
        }
        for (size_t i = 1; cur != nullptr && i < comps.size(); ++i) {
            const FieldDecl *f = cur->field(comps[i]);
            cur = f != nullptr ? resolveStruct(f->type_token, cur->file,
                                               cur->canonical)
                               : nullptr;
        }
        return cur;
    }

    /**
     * Canonical "<Struct>::<member>" name of a lock expression inside
     * @p fn, or "" when it cannot be resolved unambiguously.
     */
    std::string
    resolveLock(const std::string &expr, const FunctionDecl &fn) const
    {
        std::string clean;
        for (char c : expr) {
            if (c != '&' && c != ' ' && c != '*') {
                clean.push_back(c);
            }
        }
        std::vector<std::string> comps = splitChain(clean);
        if (comps.empty()) {
            return "";
        }
        if (comps.size() == 1) {
            // Bare member of the enclosing struct.
            const StructDecl *own = functionStruct(fn);
            if (own != nullptr && own->field(comps[0]) != nullptr) {
                return own->canonical + "::" + comps[0];
            }
            return "";
        }
        std::string owner_chain = comps[0];
        for (size_t i = 1; i + 1 < comps.size(); ++i) {
            owner_chain += "." + comps[i];
        }
        const StructDecl *owner = resolveChain(owner_chain, fn);
        if (owner == nullptr || owner->field(comps.back()) == nullptr) {
            return "";
        }
        return owner->canonical + "::" + comps.back();
    }

    /** Base (last) component of a lock expression, for fuzzy matching. */
    static std::string
    lockBase(const std::string &expr)
    {
        std::vector<std::string> comps = splitChain(expr);
        return comps.empty() ? expr : comps.back();
    }

    /**
     * Resolve a call to its (unique) target: by receiver type when the
     * receiver chain resolves, else by unambiguous base name. Returns
     * nullptr for unknown or ambiguous targets - callers must treat
     * that as "no information", never as an error.
     */
    const FunctionDecl *
    resolveCall(const CallRec &call, const FunctionDecl &caller) const
    {
        if (!call.receiver.empty() && call.receiver != "?") {
            const StructDecl *s = resolveChain(call.receiver, caller);
            if (s != nullptr) {
                auto it =
                    fns_by_qualified.find(s->canonical + "::" + call.name);
                // A resolved receiver without such a method stays
                // unknown - do not fall through to the name heuristic
                // with contradicting type information in hand.
                return it != fns_by_qualified.end() ? it->second : nullptr;
            }
        }
        // Free call, or a receiver we could not type (chained calls like
        // Registry::instance().snapshot() record receiver "?"): a
        // globally unique base name is still an unambiguous target.
        auto it = fns_by_base.find(call.name);
        if (it == fns_by_base.end() || it->second.size() != 1) {
            return nullptr;
        }
        return it->second.front();
    }

    static std::vector<std::string>
    splitChain(const std::string &chain)
    {
        std::vector<std::string> out;
        std::string cur;
        for (size_t i = 0; i < chain.size(); ++i) {
            char c = chain[i];
            if (c == '.') {
                if (!cur.empty()) {
                    out.push_back(cur);
                }
                cur.clear();
            } else if (c == '-' && i + 1 < chain.size() &&
                       chain[i + 1] == '>') {
                if (!cur.empty()) {
                    out.push_back(cur);
                }
                cur.clear();
                ++i;
            } else if (isIdentChar(c)) {
                cur.push_back(c);
            } else {
                return {}; // unexpected character: unresolvable
            }
        }
        if (!cur.empty()) {
            out.push_back(cur);
        }
        return out;
    }
};

inline GlobalModel
buildGlobalModel(std::vector<FileModel> &files)
{
    GlobalModel gm;
    gm.files = &files;
    for (const FileModel &fm : files) {
        for (const StructDecl &s : fm.structs) {
            std::string last = s.canonical;
            size_t sep = last.rfind("::");
            if (sep != std::string::npos) {
                last = last.substr(sep + 2);
            }
            gm.structs_by_last[last].push_back(&s);
            gm.structs_by_canonical.emplace(s.canonical, &s);
        }
    }
    for (const FileModel &fm : files) {
        for (const FunctionDecl &fn : fm.functions) {
            gm.fns_by_base[fn.base].push_back(&fn);
            const StructDecl *s = gm.functionStruct(fn);
            if (s != nullptr) {
                gm.fns_by_qualified.emplace(
                    s->canonical + "::" + fn.base, &fn);
            }
        }
    }
    // Transitive lock acquisitions to a fixed point over the call graph.
    for (const FileModel &fm : files) {
        if (fm.exempt_concurrency) {
            continue;
        }
        for (const FunctionDecl &fn : fm.functions) {
            std::set<std::string> &acq = gm.transitive_acquires[&fn];
            for (const AcquireSite &a : fn.acquires) {
                std::string canon = gm.resolveLock(a.expr, fn);
                if (!canon.empty()) {
                    acq.insert(canon);
                }
            }
        }
    }
    for (int iter = 0; iter < 30; ++iter) {
        bool changed = false;
        for (const FileModel &fm : files) {
            if (fm.exempt_concurrency) {
                continue;
            }
            for (const FunctionDecl &fn : fm.functions) {
                std::set<std::string> &acq = gm.transitive_acquires[&fn];
                for (const CallRec &call : fn.calls) {
                    const FunctionDecl *callee = gm.resolveCall(call, fn);
                    if (callee == nullptr || callee == &fn) {
                        continue;
                    }
                    auto it = gm.transitive_acquires.find(callee);
                    if (it == gm.transitive_acquires.end()) {
                        continue;
                    }
                    for (const std::string &l : it->second) {
                        changed |= acq.insert(l).second;
                    }
                }
            }
        }
        if (!changed) {
            break;
        }
    }
    return gm;
}

// ---- Lock-order spec -----------------------------------------------------

/**
 * tools/lock-order.txt format, one rule per line ('#' comments):
 *
 *   order A B       A may be held while acquiring B; acquiring A while
 *                   holding B is a violation.
 *   exclusive A B   never nested in either direction; "exclusive A A"
 *                   bans re-acquisition of A while A is held.
 *
 * A and B are canonical "<Struct>::<member>" lock names.
 */
struct LockOrderSpec {
    std::vector<std::pair<std::string, std::string>> order;
    std::vector<std::pair<std::string, std::string>> exclusive;

    bool
    allows(const std::string &from, const std::string &to) const
    {
        for (const auto &[a, b] : order) {
            if (a == from && b == to) {
                return true;
            }
        }
        return false;
    }
};

inline std::optional<LockOrderSpec>
loadLockOrderSpec(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        return std::nullopt;
    }
    LockOrderSpec spec;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream is(line);
        std::string kind;
        std::string a;
        std::string b;
        if (!(is >> kind >> a >> b)) {
            continue;
        }
        if (kind == "order") {
            spec.order.emplace_back(a, b);
        } else if (kind == "exclusive") {
            spec.exclusive.emplace_back(a, b);
        }
    }
    return spec;
}

// ---- Pass support --------------------------------------------------------

/**
 * Suppression-aware reporting into one FileModel. A hit records which
 * marker did the suppressing so stale markers can be flagged after all
 * passes ran.
 */
inline bool
suppressedAt(FileModel &fm, const std::string &rule, size_t line)
{
    std::string marker = "sevf_lint: allow(" + rule + ")";
    for (size_t l : {line, line - 1}) {
        if (l >= 1 && l <= fm.text.raw.size() &&
            fm.text.raw[l - 1].find(marker) != std::string::npos) {
            fm.used_markers.emplace_back(l, rule);
            return true;
        }
    }
    return false;
}

inline void
reportTo(FileModel &fm, size_t line, const std::string &rule,
         const std::string &message)
{
    if (suppressedAt(fm, rule, line)) {
        return;
    }
    fm.violations.push_back({fm.rel, line, rule, message});
}

/** Canonical-or-base lockset match for guarded-by checks. */
inline bool
lockHeld(const std::string &guard_canonical, const std::string &guard_base,
         const std::vector<std::string> &held_canonicals,
         const std::vector<std::string> &held_bases)
{
    if (!guard_canonical.empty()) {
        for (const std::string &h : held_canonicals) {
            if (h == guard_canonical) {
                return true;
            }
        }
        // Fall back to base names for held locks that did not resolve.
        for (size_t i = 0; i < held_bases.size(); ++i) {
            if (held_canonicals[i].empty() &&
                held_bases[i] == guard_base) {
                return true;
            }
        }
        return false;
    }
    for (const std::string &h : held_bases) {
        if (h == guard_base) {
            return true;
        }
    }
    return false;
}

// ---- guarded-by pass -----------------------------------------------------

/** One SEVF_GUARDED_BY field known to the whole program. */
struct GuardedField {
    const StructDecl *owner;
    const FieldDecl *field;
    std::string guard_canonical; //!< "" when the guard did not resolve
    std::string guard_base;
};

inline std::vector<GuardedField>
collectGuardedFields(const std::vector<FileModel> &files)
{
    std::vector<GuardedField> out;
    for (const FileModel &fm : files) {
        if (fm.exempt_concurrency) {
            continue;
        }
        for (const StructDecl &s : fm.structs) {
            for (const FieldDecl &f : s.fields) {
                if (f.guard_expr.empty()) {
                    continue;
                }
                GuardedField g;
                g.owner = &s;
                g.field = &f;
                g.guard_base = GlobalModel::lockBase(f.guard_expr);
                if (s.field(g.guard_base) != nullptr) {
                    g.guard_canonical = s.canonical + "::" + g.guard_base;
                }
                out.push_back(g);
            }
        }
    }
    return out;
}

/**
 * The lockset pass: flags reads/writes of SEVF_GUARDED_BY fields made
 * without the guard held, and calls to SEVF_REQUIRES functions without
 * the required lock. SEVF_NO_THREAD_SAFETY_ANALYSIS exempts a function
 * from this pass only.
 */
inline void
runGuardedByPass(FileModel &fm, const GlobalModel &gm,
                 const std::vector<GuardedField> &guarded)
{
    if (fm.exempt_concurrency) {
        return;
    }
    for (const FunctionDecl &fn : fm.functions) {
        if (fn.no_tsa) {
            continue;
        }
        const StructDecl *own = gm.functionStruct(fn);
        // Cache lock-expression resolutions per function.
        std::map<std::string, std::string> canon_cache;
        auto canonOf = [&](const std::string &expr) -> const std::string & {
            auto it = canon_cache.find(expr);
            if (it == canon_cache.end()) {
                it = canon_cache
                         .emplace(expr, gm.resolveLock(expr, fn))
                         .first;
            }
            return it->second;
        };
        auto heldSets = [&](const std::vector<std::string> &held,
                            std::vector<std::string> &canonicals,
                            std::vector<std::string> &bases) {
            for (const std::string &h : held) {
                canonicals.push_back(canonOf(h));
                bases.push_back(GlobalModel::lockBase(h));
            }
        };
        std::set<std::pair<size_t, const FieldDecl *>> reported;
        for (const StmtRec &stmt : fn.stmts) {
            std::vector<std::string> held_c;
            std::vector<std::string> held_b;
            bool held_built = false;
            for (const GuardedField &g : guarded) {
                const std::string &name = g.field->name;
                size_t pos = 0;
                while ((pos = stmt.text.find(name, pos)) !=
                       std::string::npos) {
                    size_t start = pos;
                    pos += name.size();
                    // Identifier boundaries.
                    if ((start > 0 && isIdentChar(stmt.text[start - 1])) ||
                        (pos < stmt.text.size() &&
                         isIdentChar(stmt.text[pos]))) {
                        continue;
                    }
                    // A following '(' means a method call, not a field.
                    size_t after = pos;
                    while (after < stmt.text.size() &&
                           stmt.text[after] == ' ') {
                        ++after;
                    }
                    if (after < stmt.text.size() &&
                        stmt.text[after] == '(') {
                        continue;
                    }
                    bool qualified = false;
                    std::string receiver;
                    size_t rb = start;
                    while (rb > 0 && stmt.text[rb - 1] == ' ') {
                        --rb;
                    }
                    if (rb >= 2 && stmt.text[rb - 2] == ':' &&
                        stmt.text[rb - 1] == ':') {
                        continue; // scoped name, not a member access
                    }
                    bool dot = rb >= 1 && stmt.text[rb - 1] == '.';
                    bool arrow = rb >= 2 && stmt.text[rb - 2] == '-' &&
                                 stmt.text[rb - 1] == '>';
                    if (dot || arrow) {
                        qualified = true;
                        size_t re = rb - (dot ? 1 : 2);
                        size_t rs = re;
                        while (rs > 0 &&
                               (isIdentChar(stmt.text[rs - 1]) ||
                                stmt.text[rs - 1] == '.' ||
                                (rs >= 2 && stmt.text[rs - 1] == '>' &&
                                 stmt.text[rs - 2] == '-'))) {
                            if (rs >= 2 && stmt.text[rs - 1] == '>' &&
                                stmt.text[rs - 2] == '-') {
                                rs -= 2;
                            } else {
                                --rs;
                            }
                        }
                        receiver = rs < re
                                       ? stmt.text.substr(rs, re - rs)
                                       : "";
                    }
                    bool check = false;
                    if (qualified) {
                        const StructDecl *rt =
                            receiver.empty()
                                ? nullptr
                                : gm.resolveChain(receiver, fn);
                        if (rt == g.owner) {
                            check = true;
                        } else if (rt == nullptr &&
                                   fm.rel == g.owner->file) {
                            // Unresolvable receiver: only trust the
                            // match inside the declaring file.
                            check = true;
                        }
                    } else {
                        // Bare name: member functions of the owner only.
                        check = own != nullptr && own == g.owner;
                    }
                    if (!check) {
                        continue;
                    }
                    if (!held_built) {
                        heldSets(stmt.held, held_c, held_b);
                        held_built = true;
                    }
                    if (lockHeld(g.guard_canonical, g.guard_base, held_c,
                                 held_b)) {
                        continue;
                    }
                    if (reported.emplace(stmt.line, g.field).second) {
                        std::string guard_name =
                            g.guard_canonical.empty()
                                ? g.guard_base
                                : g.guard_canonical;
                        reportTo(fm, stmt.line, "guarded-by",
                                 "field '" + g.owner->canonical + "::" +
                                     name + "' (guarded by " + guard_name +
                                     ") accessed without holding the "
                                     "guard");
                    }
                }
            }
        }
        // Calls into SEVF_REQUIRES functions without the lock held.
        for (const CallRec &call : fn.calls) {
            const FunctionDecl *callee = gm.resolveCall(call, fn);
            if (callee == nullptr || callee->requires_exprs.empty()) {
                continue;
            }
            std::vector<std::string> held_c;
            std::vector<std::string> held_b;
            heldSets(call.held, held_c, held_b);
            for (const std::string &req : callee->requires_exprs) {
                std::string canon;
                std::vector<std::string> comps =
                    GlobalModel::splitChain(req);
                if (comps.empty()) {
                    continue;
                }
                // Parameter-qualified requirement ("shard.mu"): map the
                // parameter to the caller's argument expression.
                bool mapped = false;
                for (size_t i = 0; i < callee->params.size(); ++i) {
                    if (callee->params[i].first != comps[0]) {
                        continue;
                    }
                    mapped = true;
                    if (i >= call.args.size()) {
                        break;
                    }
                    std::string expr = call.args[i];
                    for (size_t k = 1; k < comps.size(); ++k) {
                        expr += "." + comps[k];
                    }
                    canon = gm.resolveLock(expr, fn);
                    break;
                }
                if (!mapped && comps.size() == 1) {
                    // Bare member of the callee's struct.
                    const StructDecl *cs = gm.functionStruct(*callee);
                    if (cs != nullptr && cs->field(comps[0]) != nullptr) {
                        canon = cs->canonical + "::" + comps[0];
                    }
                }
                if (canon.empty()) {
                    continue; // unresolvable: no information, no report
                }
                if (lockHeld(canon, GlobalModel::lockBase(canon), held_c,
                             held_b)) {
                    continue;
                }
                reportTo(fm, call.line, "guarded-by",
                         "call to '" + callee->display() +
                             "' requires holding " + canon +
                             " (SEVF_REQUIRES), which is not held here");
            }
        }
    }
}

// ---- lock-order pass -----------------------------------------------------

struct LockEdge {
    std::string from;
    std::string to;
    std::string file; //!< lint-root-relative site of the acquisition
    size_t line = 0;
    std::string note; //!< "" or "via call to 'f'"
};

/**
 * Build the global acquisition-order graph: a directed edge A -> B for
 * every site that acquires B while holding A, either directly or
 * transitively through a resolvable call. Only fully resolved canonical
 * names participate - ambiguity must not fabricate cycles.
 */
inline std::vector<LockEdge>
collectLockEdges(const std::vector<FileModel> &files, const GlobalModel &gm)
{
    std::vector<LockEdge> edges;
    std::set<std::pair<std::string, std::string>> seen;
    auto addEdge = [&](const std::string &from, const std::string &to,
                       const std::string &file, size_t line,
                       const std::string &note) {
        if (from.empty() || to.empty()) {
            return;
        }
        if (seen.emplace(from, to).second) {
            edges.push_back({from, to, file, line, note});
        }
    };
    for (const FileModel &fm : files) {
        if (fm.exempt_concurrency) {
            continue;
        }
        for (const FunctionDecl &fn : fm.functions) {
            for (const AcquireSite &a : fn.acquires) {
                std::string to = gm.resolveLock(a.expr, fn);
                for (const std::string &h : a.held_before) {
                    addEdge(gm.resolveLock(h, fn), to, fm.rel, a.line, "");
                }
            }
            for (const CallRec &call : fn.calls) {
                if (call.held.empty()) {
                    continue;
                }
                const FunctionDecl *callee = gm.resolveCall(call, fn);
                if (callee == nullptr) {
                    continue;
                }
                auto it = gm.transitive_acquires.find(callee);
                if (it == gm.transitive_acquires.end()) {
                    continue;
                }
                for (const std::string &to : it->second) {
                    for (const std::string &h : call.held) {
                        addEdge(gm.resolveLock(h, fn), to, fm.rel,
                                call.line,
                                " via call to '" + callee->display() +
                                    "'");
                    }
                }
            }
        }
    }
    return edges;
}

/**
 * The lock-order pass: checks every edge against the declared spec
 * (reversed 'order' entries and any 'exclusive' pairing are
 * violations) and reports every edge participating in a cycle of the
 * remaining graph. Edges matching a declared 'order A B' are never
 * themselves reported. Violations are routed through the owning file's
 * suppression handling.
 */
inline void
runLockOrderPass(std::vector<FileModel> &files, const GlobalModel &gm,
                 const LockOrderSpec &spec)
{
    std::vector<LockEdge> edges = collectLockEdges(files, gm);
    auto fileFor = [&](const std::string &rel) -> FileModel * {
        for (FileModel &fm : files) {
            if (fm.rel == rel) {
                return &fm;
            }
        }
        return nullptr;
    };
    std::set<std::pair<std::string, std::string>> spec_violations;
    for (const LockEdge &e : edges) {
        if (spec.allows(e.from, e.to)) {
            continue;
        }
        std::string why;
        if (spec.allows(e.to, e.from)) {
            why = "contradicts declared 'order " + e.to + " " + e.from +
                  "' in the lock-order spec";
        }
        for (const auto &[a, b] : spec.exclusive) {
            if ((a == e.from && b == e.to) ||
                (a == e.to && b == e.from)) {
                why = "locks are declared 'exclusive " + a + " " + b +
                      "' (never nested) in the lock-order spec";
                break;
            }
        }
        if (why.empty()) {
            continue;
        }
        spec_violations.emplace(e.from, e.to);
        if (FileModel *fm = fileFor(e.file)) {
            reportTo(*fm, e.line, "lock-order",
                     "acquiring " + e.to + " while holding " + e.from +
                         e.note + " " + why);
        }
    }
    // Cycle detection on the remaining graph (declared edges included:
    // a cycle through a declared edge is still reported on the
    // undeclared edges that close it).
    std::map<std::string, std::vector<const LockEdge *>> adj;
    for (const LockEdge &e : edges) {
        if (spec_violations.count({e.from, e.to})) {
            continue; // already reported
        }
        adj[e.from].push_back(&e);
    }
    // Iterative DFS per start node; report each offending edge once.
    std::set<const LockEdge *> reported;
    for (const LockEdge &start : edges) {
        if (spec_violations.count({start.from, start.to}) ||
            reported.count(&start) || spec.allows(start.from, start.to)) {
            continue;
        }
        // Is there a path start.to ->* start.from?
        std::vector<std::string> stack = {start.to};
        std::set<std::string> visited;
        std::map<std::string, const LockEdge *> parent_edge;
        bool cycle = start.to == start.from;
        while (!cycle && !stack.empty()) {
            std::string node = stack.back();
            stack.pop_back();
            if (!visited.insert(node).second) {
                continue;
            }
            auto it = adj.find(node);
            if (it == adj.end()) {
                continue;
            }
            for (const LockEdge *e : it->second) {
                if (parent_edge.find(e->to) == parent_edge.end()) {
                    parent_edge[e->to] = e;
                }
                if (e->to == start.from) {
                    cycle = true;
                    break;
                }
                stack.push_back(e->to);
            }
        }
        if (!cycle) {
            continue;
        }
        // Render the cycle path start.from -> start.to -> ... -> start.from.
        std::string path = start.from + " -> " + start.to;
        std::string cur = start.to;
        std::set<std::string> guard;
        while (cur != start.from && guard.insert(cur).second) {
            auto it = parent_edge.find(start.from);
            if (start.to == start.from) {
                break;
            }
            // Walk parents backwards from start.from is awkward; just
            // note the closing lock.
            (void)it;
            break;
        }
        path += " -> ... -> " + start.from;
        if (start.to == start.from) {
            path = start.from + " -> " + start.from;
        }
        reported.insert(&start);
        if (FileModel *fm = fileFor(start.file)) {
            reportTo(*fm, start.line, "lock-order",
                     "acquiring " + start.to + " while holding " +
                         start.from + start.note +
                         " creates an ordering cycle (" + path +
                         "); declare a global order in the lock-order "
                         "spec or break the nesting");
        }
    }
}

// ---- secret-flow pass ----------------------------------------------------

/** How a value became tainted inside one function. */
enum class TaintOrigin { kDirect, kInterproc };

struct SinkHit {
    size_t line = 0;
    std::string sink;
    bool interproc = false;
};

struct TaintWalk {
    std::map<std::string, TaintOrigin> tainted;
    bool return_tainted = false;
    std::vector<SinkHit> hits;
};

/**
 * Flow-sensitive taint walk over one function. Sources of taint:
 * direct calls to a secret-source function, calls to a callee the
 * interprocedural fixed point classified secret-returning, mentions of
 * an already-tainted variable, and the caller-provided @p seeds (used
 * to compute sink-forwarding parameter summaries). declassify(x, ...)
 * launders every variable it names. Sinks: the kSecretSinks names plus
 * calls that pass a tainted argument into a sink-forwarding parameter.
 */
inline TaintWalk
walkTaint(const FunctionDecl &fn, const GlobalModel &gm,
          const std::vector<std::string> &sources,
          std::map<std::string, TaintOrigin> seeds)
{
    static const std::regex assign_re("(\\w+)\\s*=(?!=)");
    static const std::regex assign_or_return_re(
        "SEVF_ASSIGN_OR_RETURN\\s*\\(\\s*[^,]*?(\\w+)\\s*,");
    TaintWalk w;
    w.tainted = std::move(seeds);
    auto mentionsTainted = [&](const std::string &text, bool *interproc) {
        bool any = false;
        for (const auto &[name, origin] : w.tainted) {
            if (containsWord(text, name)) {
                any = true;
                if (origin == TaintOrigin::kInterproc) {
                    *interproc = true;
                }
            }
        }
        return any;
    };
    size_t call_cursor = 0;
    for (const StmtRec &stmt : fn.stmts) {
        const std::string &text = stmt.text;
        if (text.find("declassify") != std::string::npos) {
            // Explicit declassification launders every tainted variable
            // named in it (the runtime audit-logs the event).
            for (auto it = w.tainted.begin(); it != w.tainted.end();) {
                it = containsWord(text, it->first) ? w.tainted.erase(it)
                                                   : std::next(it);
            }
            continue;
        }
        bool interproc = false;
        bool calls_source = std::any_of(
            sources.begin(), sources.end(), [&](const std::string &src) {
                return callsFunction(text, src);
            });
        // Calls recorded for this statement (calls and stmts are both
        // appended in statement order, so a cursor suffices).
        while (call_cursor < fn.calls.size() &&
               fn.calls[call_cursor].line < stmt.line) {
            ++call_cursor;
        }
        std::vector<const CallRec *> stmt_calls;
        for (size_t c = call_cursor;
             c < fn.calls.size() && fn.calls[c].line == stmt.line; ++c) {
            stmt_calls.push_back(&fn.calls[c]);
        }
        bool calls_secret_callee = false;
        for (const CallRec *call : stmt_calls) {
            const FunctionDecl *callee = gm.resolveCall(*call, fn);
            if (callee != nullptr && callee != &fn &&
                gm.secret_returning.count(callee)) {
                calls_secret_callee = true;
            }
        }
        bool mentions = mentionsTainted(text, &interproc);
        bool rhs_tainted = calls_source || calls_secret_callee || mentions;
        if (calls_secret_callee) {
            interproc = true;
        }
        // Named-sink check: a tainted value feeding a sink on this very
        // statement is a leak even when it is also being assigned.
        if (rhs_tainted) {
            for (const char *sink : kSecretSinks) {
                if (callsFunction(text, sink)) {
                    w.hits.push_back({stmt.line, sink, interproc});
                    break;
                }
            }
        }
        // Forwarding-sink check: a tainted argument bound to a
        // parameter the summary pass proved reaches a sink.
        for (const CallRec *call : stmt_calls) {
            const FunctionDecl *callee = gm.resolveCall(*call, fn);
            if (callee == nullptr || callee == &fn) {
                continue;
            }
            auto it = gm.sink_forwarding.find(callee);
            if (it == gm.sink_forwarding.end()) {
                continue;
            }
            bool hit = false;
            for (size_t idx : it->second) {
                if (idx >= call->args.size()) {
                    continue;
                }
                bool arg_interproc = false;
                const std::string &arg = call->args[idx];
                bool arg_tainted =
                    mentionsTainted(arg, &arg_interproc) ||
                    std::any_of(sources.begin(), sources.end(),
                                [&](const std::string &src) {
                                    return callsFunction(arg, src);
                                });
                hit = hit || arg_tainted;
            }
            if (hit) {
                w.hits.push_back({call->line, callee->display(), true});
            }
        }
        if (!rhs_tainted) {
            continue;
        }
        if (text.rfind("return", 0) == 0 &&
            (text.size() == 6 || !isIdentChar(text[6]))) {
            w.return_tainted = true;
            continue;
        }
        TaintOrigin origin =
            interproc ? TaintOrigin::kInterproc : TaintOrigin::kDirect;
        std::smatch m;
        std::string lhs;
        if (std::regex_search(text, m, assign_re)) {
            lhs = m[1].str();
        } else if (std::regex_search(text, m, assign_or_return_re)) {
            lhs = m[1].str();
        }
        if (!lhs.empty()) {
            auto it = w.tainted.find(lhs);
            if (it == w.tainted.end()) {
                w.tainted.emplace(lhs, origin);
            } else if (origin == TaintOrigin::kInterproc) {
                it->second = origin;
            }
        }
    }
    return w;
}

/**
 * Interprocedural summaries to a fixed point:
 *  - secret_returning: the function's return value is tainted;
 *  - sink_forwarding: seeding parameter i produces sink hits beyond the
 *    function's own baseline (so a function that independently leaks a
 *    source is not mistaken for a forwarder).
 */
inline void
computeSecretSummaries(const std::vector<FileModel> &files, GlobalModel &gm,
                       const std::vector<std::string> &sources)
{
    for (int iter = 0; iter < 30; ++iter) {
        bool changed = false;
        for (const FileModel &fm : files) {
            for (const FunctionDecl &fn : fm.functions) {
                TaintWalk baseline = walkTaint(fn, gm, sources, {});
                if (baseline.return_tainted &&
                    gm.secret_returning.insert(&fn).second) {
                    changed = true;
                }
                for (size_t i = 0; i < fn.params.size(); ++i) {
                    const std::string &pname = fn.params[i].first;
                    if (pname.empty() ||
                        gm.sink_forwarding[&fn].count(i) != 0) {
                        continue;
                    }
                    TaintWalk seeded = walkTaint(
                        fn, gm, sources,
                        {{pname, TaintOrigin::kDirect}});
                    if (seeded.hits.size() > baseline.hits.size()) {
                        gm.sink_forwarding[&fn].insert(i);
                        changed = true;
                    }
                }
            }
        }
        if (!changed) {
            break;
        }
    }
}

/**
 * The reporting walk: direct source-to-sink flows keep the original
 * "secret-flow" rule; any flow that crossed a function boundary (a
 * secret-returning callee or a sink-forwarding parameter) is reported
 * as "interproc-secret-flow" so suppressions stay precise.
 */
inline void
runSecretFlowPass(FileModel &fm, const GlobalModel &gm,
                  const std::vector<std::string> &sources)
{
    for (const FunctionDecl &fn : fm.functions) {
        TaintWalk w = walkTaint(fn, gm, sources, {});
        std::set<std::pair<size_t, bool>> seen;
        for (const SinkHit &h : w.hits) {
            if (!seen.emplace(h.line, h.interproc).second) {
                continue;
            }
            if (h.interproc) {
                reportTo(fm, h.line, "interproc-secret-flow",
                         "secret value flows into sink '" + h.sink +
                             "' across a function boundary without "
                             "declassify(); if this flow is reviewed and "
                             "intentional, declassify() the value first");
            } else {
                reportTo(fm, h.line, "secret-flow",
                         "secret value flows into sink '" + h.sink +
                             "' without declassify(); if this flow is "
                             "reviewed and intentional, declassify() the "
                             "value first");
            }
        }
    }
}

// ---- Root-of-trust audit -------------------------------------------------

/**
 * tools/tcb-budget.txt format, one rule per line ('#' comments):
 *
 *   max-functions N   the TCB closure may contain at most N functions
 *   max-loc N         total lines of code across the closure
 *   ban <module>      the closure must never reach the module - a file
 *                     path minus extension ("compress/gzip_lite") or a
 *                     directory prefix ("compress")
 *   ban-api <name>    calling <name> anywhere inside the closure is an
 *                     error (tcb-construct)
 *   exempt <module>   infrastructure the closure stops at wholesale
 *                     (e.g. obs, taint) without per-function
 *                     SEVF_TCB_EXEMPT annotations
 */
struct TcbBudget {
    size_t max_functions = 0; //!< 0 = unlimited
    size_t max_loc = 0;       //!< 0 = unlimited
    std::vector<std::string> banned_modules;
    std::vector<std::string> banned_apis;
    std::vector<std::string> exempt_modules;
};

inline std::optional<TcbBudget>
loadTcbBudget(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        return std::nullopt;
    }
    TcbBudget budget;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream is(line);
        std::string kind;
        std::string arg;
        if (!(is >> kind)) {
            continue;
        }
        if (kind == "max-functions") {
            is >> budget.max_functions;
        } else if (kind == "max-loc") {
            is >> budget.max_loc;
        } else if (kind == "ban" && is >> arg) {
            budget.banned_modules.push_back(arg);
        } else if (kind == "ban-api" && is >> arg) {
            budget.banned_apis.push_back(arg);
        } else if (kind == "exempt" && is >> arg) {
            budget.exempt_modules.push_back(arg);
        }
    }
    return budget;
}

/** "image/bzimage" from "image/bzimage.cc". */
inline std::string
moduleOf(const std::string &rel)
{
    return fs::path(rel).replace_extension("").generic_string();
}

/** Exact module or directory-prefix match ("compress" bans the tree). */
inline bool
moduleMatches(const std::string &module, const std::string &pattern)
{
    return module == pattern ||
           (module.size() > pattern.size() &&
            module.compare(0, pattern.size(), pattern) == 0 &&
            module[pattern.size()] == '/');
}

struct TcbFunction {
    std::string name; //!< FunctionDecl::display()
    std::string file;
    size_t line = 0;
    size_t loc = 0;
    std::string module;
};

/** The audited root of trust: everything reachable from an entry. */
struct TcbInventory {
    std::vector<std::string> entry_points;
    /** Trust-boundary functions the closure reached and stopped at. */
    std::vector<std::string> exempt;
    std::vector<TcbFunction> functions; //!< sorted (module, name, file, line)
    size_t total_functions = 0;
    size_t total_loc = 0;
};

/**
 * The TCB reachability pass: BFS over resolvable calls from every
 * SEVF_TCB entry point. SEVF_TCB_EXEMPT functions (and modules listed
 * as 'exempt' in the budget) terminate a branch - they are recorded in
 * the inventory's exempt list, never traversed. On the closure it
 * enforces the budget (tcb-budget), banned modules reported at the
 * first call site that crosses into them (tcb-reach), banned
 * constructs/APIs (tcb-construct), and call-graph cycles
 * (tcb-recursion). A SEVF_TCB_EXEMPT annotation no entry point ever
 * reaches is itself flagged (unused-suppression) so exemptions cannot
 * outlive the call edge that justified them.
 */
inline TcbInventory
runTcbAudit(std::vector<FileModel> &files, const GlobalModel &gm,
            const std::optional<TcbBudget> &budget_opt)
{
    const TcbBudget budget = budget_opt.value_or(TcbBudget{});
    TcbInventory inv;
    std::map<const FunctionDecl *, FileModel *> owner;
    std::vector<const FunctionDecl *> entries;
    for (FileModel &fm : files) {
        for (const FunctionDecl &fn : fm.functions) {
            owner[&fn] = &fm;
            if (fn.tcb_entry) {
                entries.push_back(&fn);
            }
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const FunctionDecl *a, const FunctionDecl *b) {
                  return std::tie(a->file, a->line) <
                         std::tie(b->file, b->line);
              });
    auto inExemptModule = [&](const FunctionDecl *fn) {
        std::string m = moduleOf(fn->file);
        for (const std::string &p : budget.exempt_modules) {
            if (moduleMatches(m, p)) {
                return true;
            }
        }
        return false;
    };

    struct Reach {
        const FunctionDecl *via = nullptr; //!< caller at the first reach
        size_t line = 0;
    };
    std::map<const FunctionDecl *, Reach> first_reach;
    std::set<const FunctionDecl *> closure(entries.begin(), entries.end());
    std::set<const FunctionDecl *> exempt_reached;
    std::vector<const FunctionDecl *> work(entries.begin(), entries.end());
    while (!work.empty()) {
        const FunctionDecl *fn = work.back();
        work.pop_back();
        for (const CallRec &call : fn->calls) {
            const FunctionDecl *callee = gm.resolveCall(call, *fn);
            if (callee == nullptr || callee == fn) {
                continue;
            }
            if (callee->tcb_exempt || inExemptModule(callee)) {
                exempt_reached.insert(callee);
                continue;
            }
            if (closure.insert(callee).second) {
                first_reach[callee] = {fn, call.line};
                work.push_back(callee);
            }
        }
    }

    // Inventory.
    for (const FunctionDecl *fn : entries) {
        inv.entry_points.push_back(fn->display());
    }
    for (const FunctionDecl *fn : exempt_reached) {
        inv.exempt.push_back(fn->display());
    }
    std::sort(inv.exempt.begin(), inv.exempt.end());
    inv.exempt.erase(std::unique(inv.exempt.begin(), inv.exempt.end()),
                     inv.exempt.end());
    for (const FunctionDecl *fn : closure) {
        size_t loc =
            fn->end_line >= fn->line ? fn->end_line - fn->line + 1 : 1;
        inv.functions.push_back({fn->display(), fn->file, fn->line, loc,
                                 moduleOf(fn->file)});
        inv.total_loc += loc;
    }
    inv.total_functions = closure.size();
    std::sort(inv.functions.begin(), inv.functions.end(),
              [](const TcbFunction &a, const TcbFunction &b) {
                  return std::tie(a.module, a.name, a.file, a.line) <
                         std::tie(b.module, b.name, b.file, b.line);
              });

    // Banned-module reach, reported once per boundary crossing (the
    // interior of a banned module is not re-reported).
    auto bannedOf = [&](const FunctionDecl *fn) -> const std::string * {
        std::string m = moduleOf(fn->file);
        for (const std::string &p : budget.banned_modules) {
            if (moduleMatches(m, p)) {
                return &p;
            }
        }
        return nullptr;
    };
    for (const FunctionDecl *fn : closure) {
        const std::string *ban = bannedOf(fn);
        if (ban == nullptr) {
            continue;
        }
        auto it = first_reach.find(fn);
        const FunctionDecl *caller =
            it != first_reach.end() ? it->second.via : nullptr;
        if (caller != nullptr && bannedOf(caller) != nullptr) {
            continue;
        }
        if (caller != nullptr) {
            reportTo(*owner[caller], it->second.line, "tcb-reach",
                     "TCB closure reaches banned module '" + *ban +
                         "' via call to '" + fn->display() +
                         "' - the root of trust must not include it "
                         "(tcb-budget 'ban')");
        } else {
            reportTo(*owner[fn], fn->line, "tcb-reach",
                     "TCB entry point '" + fn->display() +
                         "' lives in banned module '" + *ban + "'");
        }
    }

    // Budget, anchored at the first entry point's definition.
    if (!entries.empty()) {
        const FunctionDecl *anchor = entries.front();
        if (budget.max_functions > 0 &&
            inv.total_functions > budget.max_functions) {
            reportTo(*owner[anchor], anchor->line, "tcb-budget",
                     "TCB closure contains " +
                         std::to_string(inv.total_functions) +
                         " functions, over the budget of " +
                         std::to_string(budget.max_functions) +
                         " (tcb-budget 'max-functions'); shrink the "
                         "closure or review and raise the budget");
        }
        if (budget.max_loc > 0 && inv.total_loc > budget.max_loc) {
            reportTo(*owner[anchor], anchor->line, "tcb-budget",
                     "TCB closure spans " + std::to_string(inv.total_loc) +
                         " lines, over the budget of " +
                         std::to_string(budget.max_loc) +
                         " (tcb-budget 'max-loc'); shrink the closure "
                         "or review and raise the budget");
        }
    }

    // Banned constructs inside the closure: the root of trust must not
    // allocate dynamically or call budget-banned APIs.
    for (const FunctionDecl *fn : closure) {
        FileModel &fm = *owner[fn];
        for (const StmtRec &stmt : fn->stmts) {
            for (const char *word : {"new", "delete"}) {
                if (containsWord(stmt.text, word)) {
                    reportTo(fm, stmt.line, "tcb-construct",
                             std::string("'") + word +
                                 "' inside the TCB ('" + fn->display() +
                                 "'): the root of trust must not "
                                 "allocate dynamically");
                }
            }
            for (const char *api : {"malloc", "calloc", "realloc", "free"}) {
                if (callsFunction(stmt.text, api)) {
                    reportTo(fm, stmt.line, "tcb-construct",
                             std::string("'") + api +
                                 "()' inside the TCB ('" + fn->display() +
                                 "'): the root of trust must not "
                                 "allocate dynamically");
                }
            }
        }
        for (const CallRec &call : fn->calls) {
            for (const std::string &api : budget.banned_apis) {
                if (call.name == api) {
                    reportTo(fm, call.line, "tcb-construct",
                             "call to banned API '" + api +
                                 "' inside the TCB ('" + fn->display() +
                                 "') (tcb-budget 'ban-api')");
                }
            }
        }
    }

    // Call cycles within the closure: recursion depth would be
    // attacker-influencable, and the bootstrap runs on a fixed stack.
    std::map<const FunctionDecl *, std::vector<const FunctionDecl *>> adj;
    for (const FunctionDecl *fn : closure) {
        for (const CallRec &call : fn->calls) {
            const FunctionDecl *callee = gm.resolveCall(call, *fn);
            if (callee != nullptr && closure.count(callee) != 0) {
                adj[fn].push_back(callee);
            }
        }
    }
    for (const FunctionDecl *fn : closure) {
        std::vector<const FunctionDecl *> stack = adj[fn];
        std::set<const FunctionDecl *> seen;
        bool cycle = false;
        while (!stack.empty()) {
            const FunctionDecl *n = stack.back();
            stack.pop_back();
            if (n == fn) {
                cycle = true;
                break;
            }
            if (!seen.insert(n).second) {
                continue;
            }
            auto it = adj.find(n);
            if (it != adj.end()) {
                stack.insert(stack.end(), it->second.begin(),
                             it->second.end());
            }
        }
        if (cycle) {
            reportTo(*owner[fn], fn->line, "tcb-recursion",
                     "'" + fn->display() +
                         "' participates in a call cycle inside the TCB "
                         "- unbounded recursion; rewrite iteratively or "
                         "bound and exempt it");
        }
    }

    // Stale exemptions: an SEVF_TCB_EXEMPT nothing reaches is rot.
    for (FileModel &fm : files) {
        for (const FunctionDecl &fn : fm.functions) {
            if (fn.tcb_exempt && exempt_reached.count(&fn) == 0) {
                reportTo(fm, fn.line, "unused-suppression",
                         "SEVF_TCB_EXEMPT on '" + fn.display() +
                             "' is stale: not reached from any SEVF_TCB "
                             "entry point - remove the exemption");
            }
        }
    }
    return inv;
}

// ---- untrusted-input bounds pass -----------------------------------------

/**
 * Identifier roots of an index/length expression that stand for
 * attacker-influencable offsets. Skips numeric literals, kConstants and
 * ALL_CAPS, ::-qualified names, call expressions (a chain ending in
 * '(', e.g. file.size()), keywords/builtin types, and @p base_ptrs
 * (locals bound from .data()/.begin() - whole-container pointers, not
 * offsets).
 */
inline std::vector<std::string>
riskyRoots(const std::string &expr, const std::set<std::string> &base_ptrs)
{
    static const std::set<std::string> kSkip = {
        "sizeof", "static_cast", "reinterpret_cast", "const_cast",
        "std",    "size_t",      "u8",               "u16",
        "u32",    "u64",         "i8",               "i16",
        "i32",    "i64",         "int",              "long",
        "short",  "unsigned",    "signed",           "char",
        "bool",   "auto",        "const",            "true",
        "false",  "nullptr",     "this",             "min",
        "max",    "clamp",
    };
    std::vector<std::string> out;
    size_t i = 0;
    while (i < expr.size()) {
        if (!isIdentChar(expr[i]) ||
            (i > 0 && isIdentChar(expr[i - 1]))) {
            ++i;
            continue;
        }
        // Chain members (".len", "->len") are attributed to their root.
        size_t p = i;
        while (p > 0 && expr[p - 1] == ' ') {
            --p;
        }
        if (p > 0 && (expr[p - 1] == '.' || expr[p - 1] == ':' ||
                      (p > 1 && expr[p - 1] == '>' &&
                       expr[p - 2] == '-'))) {
            while (i < expr.size() && isIdentChar(expr[i])) {
                ++i;
            }
            continue;
        }
        size_t e = i;
        while (e < expr.size() && isIdentChar(expr[e])) {
            ++e;
        }
        std::string root = expr.substr(i, e - i);
        // Walk the member chain; a trailing '(' or '::' disqualifies.
        bool call_or_qualified = false;
        size_t j = e;
        while (true) {
            size_t k = j;
            while (k < expr.size() && expr[k] == ' ') {
                ++k;
            }
            if (k < expr.size() && expr[k] == '(') {
                call_or_qualified = true;
                break;
            }
            if (k + 1 < expr.size() && expr[k] == ':' &&
                expr[k + 1] == ':') {
                call_or_qualified = true;
                break;
            }
            if (k + 1 < expr.size() && expr[k] == '.' &&
                isIdentChar(expr[k + 1])) {
                j = k + 1;
            } else if (k + 2 < expr.size() && expr[k] == '-' &&
                       expr[k + 1] == '>' && isIdentChar(expr[k + 2])) {
                j = k + 2;
            } else {
                break;
            }
            while (j < expr.size() && isIdentChar(expr[j])) {
                ++j;
            }
        }
        i = std::max(e, j);
        if (call_or_qualified ||
            std::isdigit(static_cast<unsigned char>(root[0])) ||
            kSkip.count(root) != 0 || base_ptrs.count(root) != 0) {
            continue;
        }
        bool k_const = root.size() >= 2 && root[0] == 'k' &&
                       std::isupper(static_cast<unsigned char>(root[1]));
        bool all_caps = root.size() > 1;
        bool has_alpha = false;
        for (char c : root) {
            if (std::islower(static_cast<unsigned char>(c))) {
                all_caps = false;
            }
            if (std::isalpha(static_cast<unsigned char>(c))) {
                has_alpha = true;
            }
        }
        if (k_const || (all_caps && has_alpha)) {
            continue;
        }
        out.push_back(root);
    }
    return out;
}

/**
 * Did an earlier (or this) statement bounds-check @p ident? A guard is
 * a conditional (if/for/while) mentioning the identifier with a
 * relational comparison - '<'/'>' surviving after '->', '<<' and '>>'
 * are stripped - or any statement clamping it through min()/max()/
 * clamp(). Flow-insensitive beyond statement order, by design: the
 * pass asks "was a check even attempted", the review of its adequacy
 * is what the suppression comment records.
 */
inline bool
hasBoundsGuard(const FunctionDecl &fn, const std::string &ident,
               size_t stmt_idx)
{
    for (size_t i = 0; i <= stmt_idx && i < fn.stmts.size(); ++i) {
        const std::string &t = fn.stmts[i].text;
        if (!containsWord(t, ident)) {
            continue;
        }
        bool clamped = t.find("min(") != std::string::npos ||
                       t.find("max(") != std::string::npos ||
                       t.find("clamp(") != std::string::npos;
        if (clamped) {
            return true;
        }
        std::string tok;
        {
            size_t b = 0;
            while (b < t.size() && !isIdentChar(t[b])) {
                ++b;
            }
            size_t e = b;
            while (e < t.size() && isIdentChar(t[e])) {
                ++e;
            }
            tok = t.substr(b, e - b);
        }
        if (tok != "if" && tok != "for" && tok != "while") {
            continue;
        }
        std::string s;
        for (size_t j = 0; j < t.size(); ++j) {
            if (t[j] == '-' && j + 1 < t.size() && t[j + 1] == '>') {
                ++j;
                continue;
            }
            if ((t[j] == '<' || t[j] == '>') && j + 1 < t.size() &&
                t[j + 1] == t[j]) {
                ++j;
                continue;
            }
            s.push_back(t[j]);
        }
        if (s.find('<') != std::string::npos ||
            s.find('>') != std::string::npos) {
            return true;
        }
    }
    return false;
}

/**
 * The untrusted-input bounds pass, scoped to SEVF_UNTRUSTED_INPUT
 * functions: every subscript, span/copy call (subspan/first/last/
 * memcpy/memmove/copy) and .data()/.begin() pointer arithmetic whose
 * offset/length roots lack a preceding bounds-check idiom is flagged.
 * Audited-and-accepted sites carry "sevf_lint: allow(untrusted-bounds)"
 * with a comment explaining why the arithmetic is safe.
 */
inline void
runUntrustedBoundsPass(FileModel &fm)
{
    static const char *const kCopyCalls[] = {
        "memcpy", "memmove", "copy", "copy_n", "subspan", "first", "last",
    };
    for (const FunctionDecl &fn : fm.functions) {
        if (!fn.untrusted_input) {
            continue;
        }
        std::set<std::string> base_ptrs;
        // Pointer-typed parameters are bases, not offsets: the risky
        // quantities are the integral offsets/lengths applied to them.
        // Locals formed by pointer arithmetic stay risky on purpose.
        base_ptrs.insert(fn.pointer_params.begin(),
                         fn.pointer_params.end());
        static const std::regex base_re(
            "(\\w+)\\s*=\\s*[\\w.>-]*(?:data|begin|end)\\s*\\(\\s*\\)");
        for (const StmtRec &stmt : fn.stmts) {
            auto it = std::sregex_iterator(stmt.text.begin(),
                                           stmt.text.end(), base_re);
            for (; it != std::sregex_iterator(); ++it) {
                base_ptrs.insert((*it)[1].str());
            }
        }
        std::set<std::pair<size_t, std::string>> reported;
        for (size_t si = 0; si < fn.stmts.size(); ++si) {
            const StmtRec &stmt = fn.stmts[si];
            const std::string &text = stmt.text;
            std::vector<std::pair<std::string, std::string>> sites;
            // Subscripts: '[' preceded by an identifier/')'/']'.
            for (size_t p = 0; p < text.size(); ++p) {
                if (text[p] != '[') {
                    continue;
                }
                size_t q = p;
                while (q > 0 && text[q - 1] == ' ') {
                    --q;
                }
                if (q == 0 || (!isIdentChar(text[q - 1]) &&
                               text[q - 1] != ')' && text[q - 1] != ']')) {
                    continue;
                }
                int depth = 0;
                size_t r = p;
                for (; r < text.size(); ++r) {
                    if (text[r] == '[') {
                        ++depth;
                    } else if (text[r] == ']' && --depth == 0) {
                        break;
                    }
                }
                if (r >= text.size()) {
                    continue;
                }
                sites.emplace_back(text.substr(p + 1, r - p - 1),
                                   "a subscript");
                p = r;
            }
            // Span/copy calls: roots of the whole argument list.
            for (const char *name : kCopyCalls) {
                size_t pos = 0;
                std::string fname = name;
                while ((pos = text.find(fname, pos)) != std::string::npos) {
                    bool left_ok = pos == 0 || !isIdentChar(text[pos - 1]);
                    size_t after = pos + fname.size();
                    while (after < text.size() && text[after] == ' ') {
                        ++after;
                    }
                    if (!left_ok || after >= text.size() ||
                        text[after] != '(' ||
                        (pos + fname.size() < text.size() &&
                         isIdentChar(text[pos + fname.size()]))) {
                        ++pos;
                        continue;
                    }
                    size_t close = matchParenAt(text, after);
                    if (close != std::string::npos) {
                        sites.emplace_back(
                            text.substr(after + 1, close - after - 1),
                            std::string("a call to '") + name + "'");
                    }
                    pos = after;
                }
            }
            // Pointer arithmetic on a container's raw storage.
            for (const char *anchor : {".data()", ".begin()"}) {
                size_t pos = 0;
                std::string a = anchor;
                while ((pos = text.find(a, pos)) != std::string::npos) {
                    size_t after = pos + a.size();
                    while (after < text.size() && text[after] == ' ') {
                        ++after;
                    }
                    if (after < text.size() &&
                        (text[after] == '+' || text[after] == '-')) {
                        size_t end = after;
                        int depth = 0;
                        for (; end < text.size(); ++end) {
                            char c = text[end];
                            if (c == '(' || c == '[') {
                                ++depth;
                            } else if (c == ')' || c == ']') {
                                if (--depth < 0) {
                                    break;
                                }
                            } else if (c == ',' && depth == 0) {
                                break;
                            }
                        }
                        sites.emplace_back(
                            text.substr(after + 1, end - after - 1),
                            "pointer arithmetic on raw storage");
                    }
                    pos = after;
                }
            }
            for (const auto &[expr, kind] : sites) {
                for (const std::string &root :
                     riskyRoots(expr, base_ptrs)) {
                    if (hasBoundsGuard(fn, root, si)) {
                        continue;
                    }
                    if (reported.emplace(stmt.line, root).second) {
                        reportTo(fm, stmt.line, "untrusted-bounds",
                                 "'" + root +
                                     "' derives from untrusted input and "
                                     "is used in " + kind +
                                     " without a preceding bounds check "
                                     "in '" + fn.display() + "'");
                    }
                }
            }
        }
    }
}

// ---- JSON rendering ------------------------------------------------------

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream os;
                os << "\\u00" << std::hex << std::setw(2)
                   << std::setfill('0')
                   << static_cast<int>(static_cast<unsigned char>(c));
                out += os.str();
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

/**
 * The per-module TCB inventory as pretty-printed JSON with fully
 * deterministic ordering - this is the artifact CI diffs against
 * tools/tcb-baseline.json, so any closure change is a reviewable hunk.
 * @p indent prefixes every line (for embedding in a larger document).
 */
inline std::string
renderTcbJson(const TcbInventory &inv, const std::string &indent = "")
{
    std::ostringstream os;
    auto strArray = [&](const char *key,
                        const std::vector<std::string> &values,
                        const char *trailer) {
        os << indent << "  \"" << key << "\": [";
        for (size_t i = 0; i < values.size(); ++i) {
            os << (i ? ", " : "") << "\"" << jsonEscape(values[i]) << "\"";
        }
        os << "]" << trailer << "\n";
    };
    os << indent << "{\n";
    strArray("entry_points", inv.entry_points, ",");
    strArray("exempt", inv.exempt, ",");
    os << indent << "  \"total_functions\": " << inv.total_functions
       << ",\n";
    os << indent << "  \"total_loc\": " << inv.total_loc << ",\n";
    os << indent << "  \"modules\": [";
    size_t i = 0;
    bool first_module = true;
    while (i < inv.functions.size()) {
        size_t j = i;
        size_t loc = 0;
        while (j < inv.functions.size() &&
               inv.functions[j].module == inv.functions[i].module) {
            loc += inv.functions[j].loc;
            ++j;
        }
        os << (first_module ? "\n" : ",\n");
        first_module = false;
        os << indent << "    {\n";
        os << indent << "      \"module\": \""
           << jsonEscape(inv.functions[i].module) << "\",\n";
        os << indent << "      \"functions\": " << (j - i) << ",\n";
        os << indent << "      \"loc\": " << loc << ",\n";
        os << indent << "      \"members\": [\n";
        for (size_t k = i; k < j; ++k) {
            const TcbFunction &f = inv.functions[k];
            os << indent << "        {\"name\": \"" << jsonEscape(f.name)
               << "\", \"file\": \"" << jsonEscape(f.file)
               << "\", \"line\": " << f.line << ", \"loc\": " << f.loc
               << "}" << (k + 1 < j ? "," : "") << "\n";
        }
        os << indent << "      ]\n";
        os << indent << "    }";
        i = j;
    }
    os << (first_module ? "]" : "\n" + indent + "  ]") << "\n";
    os << indent << "}";
    return os.str();
}

// ---- Per-file legacy rules -----------------------------------------------

inline void
checkHeaderGuard(FileModel &fm)
{
    std::string stem =
        fs::path(fm.rel).replace_extension("").generic_string();
    std::string expected = "SEVF_" + upperIdent(stem) + "_H_";
    size_t ifndef_line = 0;
    std::string got;
    for (size_t i = 0; i < fm.text.scrubbed.size(); ++i) {
        const std::string &line = fm.text.scrubbed[i];
        size_t pos = line.find("#ifndef ");
        if (pos != std::string::npos) {
            std::istringstream is(line.substr(pos + 8));
            is >> got;
            ifndef_line = i + 1;
            break;
        }
    }
    if (ifndef_line == 0) {
        reportTo(fm, 1, "header-guard",
                 "missing include guard (expected " + expected + ")");
        return;
    }
    if (got != expected) {
        reportTo(fm, ifndef_line, "header-guard",
                 "guard is " + got + ", expected " + expected);
        return;
    }
    bool defined = false;
    for (const std::string &line : fm.text.scrubbed) {
        if (line.find("#define " + expected) != std::string::npos) {
            defined = true;
            break;
        }
    }
    if (!defined) {
        reportTo(fm, ifndef_line, "header-guard",
                 "guard " + expected + " is never #defined");
    }
}

/** Quoted includes in file order: (line number, include path). */
inline std::vector<std::pair<size_t, std::string>>
quotedIncludes(const FileText &text)
{
    static const std::regex re("^\\s*#\\s*include\\s+\"([^\"]+)\"");
    std::vector<std::pair<size_t, std::string>> out;
    for (size_t i = 0; i < text.raw.size(); ++i) {
        std::smatch m;
        if (std::regex_search(text.raw[i], m, re)) {
            out.emplace_back(i + 1, m[1].str());
        }
    }
    return out;
}

inline void
checkIncludes(FileModel &fm, const fs::path &root)
{
    for (const auto &[line, inc] : quotedIncludes(fm.text)) {
        if (inc.find("..") != std::string::npos) {
            reportTo(fm, line, "include-path",
                     "\"" + inc + "\" uses a parent-relative path");
            continue;
        }
        if (inc.find('/') == std::string::npos) {
            reportTo(fm, line, "include-path",
                     "\"" + inc +
                         "\" is not project-relative (expected "
                         "\"<module>/<file>\")");
            continue;
        }
        if (!fs::exists(root / inc)) {
            reportTo(fm, line, "include-path",
                     "\"" + inc + "\" does not exist under " +
                         root.generic_string());
        }
    }
}

inline void
checkBannedConstructs(FileModel &fm)
{
    static const std::regex throw_re("\\bthrow\\b");
    static const std::regex rand_re("\\brand\\s*\\(");
    static const std::regex new_array_re("\\bnew\\b[^;({]*\\[");
    static const std::regex cout_re("\\bstd::cout\\b");
    bool cout_allowed = fm.rel.rfind("stats/", 0) == 0;
    for (size_t i = 0; i < fm.text.scrubbed.size(); ++i) {
        const std::string &line = fm.text.scrubbed[i];
        if (std::regex_search(line, throw_re)) {
            reportTo(fm, i + 1, "banned-construct",
                     "'throw' is banned on the boot path (use "
                     "Status/Result)");
        }
        if (std::regex_search(line, rand_re)) {
            reportTo(fm, i + 1, "banned-construct",
                     "'rand()' is banned (use base/rng.h for "
                     "deterministic streams)");
        }
        if (std::regex_search(line, new_array_re)) {
            reportTo(fm, i + 1, "banned-construct",
                     "raw 'new[]' is banned (use ByteVec/std::vector)");
        }
        if (!cout_allowed && std::regex_search(line, cout_re)) {
            reportTo(fm, i + 1, "banned-construct",
                     "'std::cout' outside stats/ (use base/logging.h)");
        }
    }
}

inline void
checkPairing(FileModel &fm, const fs::path &root)
{
    fs::path header = fs::path(fm.path).replace_extension(".h");
    if (!fs::exists(header)) {
        return; // implementation-only file (e.g. core/strategies.cc)
    }
    std::string expected = fs::relative(header, root).generic_string();
    auto incs = quotedIncludes(fm.text);
    if (incs.empty() || incs.front().second != expected) {
        reportTo(fm, incs.empty() ? 1 : incs.front().first, "cc-h-pairing",
                 "first include must be the paired header \"" + expected +
                     "\"");
    }
}

/**
 * Heuristic, matched to the project brace style (function bodies open
 * with "{" in column 0): inside each body, a variable declared
 * `Result<...> name` must appear in a guard expression - name.isOk(),
 * name.valueOr(, name.errorOr( - before name.value() or name.take().
 */
inline void
checkUnguardedResult(FileModel &fm)
{
    static const std::regex decl_re(
        "\\bResult\\s*<[^;{}()]*>\\s+(\\w+)\\s*[=;]");
    size_t body_start = 0; // 0 = not inside a body
    std::vector<std::string> decls;
    std::vector<std::string> guarded;
    for (size_t i = 0; i < fm.text.scrubbed.size(); ++i) {
        const std::string &line = fm.text.scrubbed[i];
        if (line == "{") {
            body_start = i + 1;
            decls.clear();
            guarded.clear();
            continue;
        }
        if (line == "}") {
            body_start = 0;
            continue;
        }
        if (body_start == 0) {
            continue;
        }
        std::smatch m;
        std::string rest = line;
        while (std::regex_search(rest, m, decl_re)) {
            decls.push_back(m[1].str());
            rest = m.suffix().str();
        }
        for (const std::string &name : decls) {
            if (line.find(name + ".isOk(") != std::string::npos ||
                line.find(name + ".valueOr(") != std::string::npos ||
                line.find(name + ".errorOr(") != std::string::npos) {
                guarded.push_back(name);
            }
        }
        for (const std::string &name : decls) {
            bool is_guarded = std::find(guarded.begin(), guarded.end(),
                                        name) != guarded.end();
            if (is_guarded) {
                continue;
            }
            if (line.find(name + ".value(") != std::string::npos ||
                line.find(name + ".take(") != std::string::npos) {
                reportTo(fm, i + 1, "unguarded-result",
                         "Result '" + name +
                             "' dereferenced without a prior isOk()/"
                             "valueOr()/errorOr() guard in this function");
            }
        }
    }
}

/**
 * Runs after every other pass: any "sevf_lint: allow(rule)" marker that
 * did not suppress a violation is itself an error. Stale markers are
 * how suppressions rot into blanket permission.
 */
inline void
checkUnusedSuppressions(FileModel &fm)
{
    static const std::regex marker_re("sevf_lint:\\s*allow\\(([\\w-]+)\\)");
    for (size_t i = 0; i < fm.text.raw.size(); ++i) {
        std::string rest = fm.text.raw[i];
        std::smatch m;
        while (std::regex_search(rest, m, marker_re)) {
            std::string rule = m[1].str();
            bool used =
                std::find(fm.used_markers.begin(), fm.used_markers.end(),
                          std::make_pair(i + 1, rule)) !=
                fm.used_markers.end();
            if (!used) {
                fm.violations.push_back(
                    {fm.rel, i + 1, "unused-suppression",
                     "suppression 'allow(" + rule +
                         ")' matches no violation on this or the next "
                         "line — remove it"});
            }
            rest = m.suffix().str();
        }
    }
}

// ---- Orchestration -------------------------------------------------------

struct Options {
    fs::path root;
    std::vector<std::string> extra_secret_sources;
    std::optional<LockOrderSpec> lock_order_spec;
    /** TCB budget; when unset, <root>/tcb-budget.txt is auto-loaded if
     *  present (how fixture trees carry their budget). */
    std::optional<TcbBudget> tcb_budget;
    /** Worker threads for the file-parallel phases; 0 = hardware. */
    unsigned jobs = 1;
};

struct PassStat {
    std::string name;
    long long ns = 0;
};

struct RunResult {
    std::vector<Violation> violations;
    std::vector<PassStat> stats;
    TcbInventory tcb;
};

/**
 * Machine-readable run report: the sorted violations plus the TCB
 * inventory in one document, so CI diffs findings and closure with a
 * single code path (--format=json in the CLI).
 */
inline std::string
renderReportJson(const RunResult &result)
{
    std::ostringstream os;
    os << "{\n  \"violations\": [";
    for (size_t i = 0; i < result.violations.size(); ++i) {
        const Violation &v = result.violations[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"file\": \"" << jsonEscape(v.file)
           << "\", \"line\": " << v.line << ", \"rule\": \""
           << jsonEscape(v.rule) << "\", \"message\": \""
           << jsonEscape(v.message) << "\"}";
    }
    os << (result.violations.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"tcb\": " << renderTcbJson(result.tcb, "  ").substr(2)
       << "\n}\n";
    return os.str();
}

/**
 * Full lint run over every .h/.cc under opts.root. File-local phases
 * (parse, per-file rules, guarded-by, secret-flow, suppressions) fan
 * out over a base::ThreadPool - the lint dogfoods the pool it lints;
 * the global phases (model building, lock-order) are serial. Each
 * phase's wall time is recorded in RunResult::stats.
 */
inline RunResult
runLint(const Options &opts)
{
    RunResult out;
    std::vector<fs::path> paths;
    for (const auto &entry :
         fs::recursive_directory_iterator(opts.root)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        fs::path p = entry.path();
        if (p.extension() == ".h" || p.extension() == ".cc") {
            paths.push_back(p);
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<FileModel> files(paths.size());

    // std::regex compiles through std::ctype<char>::narrow, whose
    // per-character cache libstdc++ fills lazily and without a lock.
    // The workers below build function-local regex statics at the same
    // time, so fill the cache once here, before the pool starts.
    const auto &ctype = std::use_facet<std::ctype<char>>(std::locale());
    for (int c = 0; c < 256; ++c) {
        (void)ctype.narrow(static_cast<char>(c), '\0');
    }
    unsigned jobs = opts.jobs == 0 ? base::hardwareThreads() : opts.jobs;
    jobs = std::max<u64>(
        1, std::min<u64>(jobs, paths.empty() ? 1 : paths.size()));
    base::ThreadPool pool(static_cast<unsigned>(jobs));
    auto forEachFile = [&](auto &&body) {
        pool.parallelFor(0, files.size(), 1, [&](u64 b, u64 e) {
            for (u64 i = b; i < e; ++i) {
                body(files[i]);
            }
        });
    };
    auto timed = [&](const char *name, auto &&body) {
        auto t0 = std::chrono::steady_clock::now();
        body();
        out.stats.push_back(
            {name, std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count()});
    };

    std::vector<std::string> sources(std::begin(kDefaultSecretSources),
                                     std::end(kDefaultSecretSources));
    sources.insert(sources.end(), opts.extra_secret_sources.begin(),
                   opts.extra_secret_sources.end());

    timed("parse", [&] {
        pool.parallelFor(0, files.size(), 1, [&](u64 b, u64 e) {
            for (u64 i = b; i < e; ++i) {
                FileModel &fm = files[i];
                fm.path = paths[i];
                fm.rel =
                    fs::relative(paths[i], opts.root).generic_string();
                fm.exempt_concurrency =
                    fm.rel == "base/mutex.h" ||
                    fm.rel == "base/thread_annotations.h";
                std::optional<FileText> text = loadFile(paths[i]);
                if (!text) {
                    fm.violations.push_back({fm.rel, 0, "io",
                                             "could not read file"});
                    continue;
                }
                fm.loaded = true;
                fm.text = std::move(*text);
                FileParser(fm).parse();
            }
        });
    });

    timed("file-rules", [&] {
        forEachFile([&](FileModel &fm) {
            if (!fm.loaded) {
                return;
            }
            if (fm.path.extension() == ".h") {
                checkHeaderGuard(fm);
            }
            checkIncludes(fm, opts.root);
            checkBannedConstructs(fm);
            if (fm.path.extension() == ".cc") {
                checkPairing(fm, opts.root);
                checkUnguardedResult(fm);
            }
        });
    });

    GlobalModel gm;
    std::vector<GuardedField> guarded;
    timed("model", [&] {
        gm = buildGlobalModel(files);
        computeSecretSummaries(files, gm, sources);
        guarded = collectGuardedFields(files);
    });

    timed("guarded-by", [&] {
        forEachFile([&](FileModel &fm) {
            if (fm.loaded) {
                runGuardedByPass(fm, gm, guarded);
            }
        });
    });

    timed("secret-flow", [&] {
        forEachFile([&](FileModel &fm) {
            if (fm.loaded) {
                runSecretFlowPass(fm, gm, sources);
            }
        });
    });

    timed("lock-order", [&] {
        runLockOrderPass(files, gm,
                         opts.lock_order_spec.value_or(LockOrderSpec{}));
    });

    std::optional<TcbBudget> budget = opts.tcb_budget;
    if (!budget) {
        budget = loadTcbBudget(opts.root / "tcb-budget.txt");
    }
    timed("tcb-audit", [&] { out.tcb = runTcbAudit(files, gm, budget); });

    timed("untrusted-bounds", [&] {
        forEachFile([&](FileModel &fm) {
            if (fm.loaded) {
                runUntrustedBoundsPass(fm);
            }
        });
    });

    timed("suppressions", [&] {
        forEachFile([&](FileModel &fm) {
            if (fm.loaded) {
                checkUnusedSuppressions(fm);
            }
        });
    });

    for (FileModel &fm : files) {
        out.violations.insert(out.violations.end(),
                              fm.violations.begin(), fm.violations.end());
    }
    std::sort(out.violations.begin(), out.violations.end(),
              [](const Violation &a, const Violation &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return out;
}

} // namespace sevf::lint

#endif // SEVF_TOOLS_SEVF_LINT_ENGINE_H_

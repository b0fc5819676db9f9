#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

namespace nscs::lint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Blank comments, string/character literals and preprocessor
 * directives out of @p src, preserving length and line structure so
 * offsets and line numbers survive.  Raw strings and backslash line
 * continuations are handled; a '\'' directly after an alphanumeric
 * character is treated as a digit separator, not a character literal.
 */
std::string
stripToCode(const std::string &src)
{
    std::string out(src);
    enum class St { Code, Line, Block, Str, Chr, Raw } st = St::Code;
    std::string raw_delim;
    bool line_start = true;  // only whitespace seen on this line
    for (size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (line_start && c == '#') {
                // Preprocessor directive: blank through any
                // backslash-continued lines.
                while (i < src.size()) {
                    if (src[i] == '\n') {
                        bool cont = i > 0 && src[i - 1] == '\\';
                        if (!cont)
                            break;
                    } else {
                        out[i] = ' ';
                    }
                    ++i;
                }
                --i;  // the loop increment revisits the newline
                break;
            }
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = ' ';
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = ' ';
            } else if (c == '"') {
                if (i > 0 && src[i - 1] == 'R') {
                    size_t p = i + 1;
                    raw_delim.clear();
                    while (p < src.size() && src[p] != '(')
                        raw_delim += src[p++];
                    st = St::Raw;
                } else {
                    st = St::Str;
                }
            } else if (c == '\'' && !(i > 0 && identChar(src[i - 1]))) {
                st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
            if (c == '\\') {
                out[i] = ' ';
                if (n != '\n')
                    out[++i] = ' ';
            } else if (c == '"') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Chr:
            if (c == '\\') {
                out[i] = ' ';
                if (n != '\n')
                    out[++i] = ' ';
            } else if (c == '\'') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Raw: {
            std::string close = ")" + raw_delim + "\"";
            if (src.compare(i, close.size(), close) == 0) {
                i += close.size() - 1;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          }
        }
        if (c == '\n')
            line_start = true;
        else if (!std::isspace(static_cast<unsigned char>(c)))
            line_start = false;
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t b = 0;
    while (b <= text.size()) {
        size_t e = text.find('\n', b);
        if (e == std::string::npos) {
            lines.push_back(text.substr(b));
            break;
        }
        lines.push_back(text.substr(b, e - b));
        b = e + 1;
    }
    return lines;
}

/** Qualification of an identifier occurrence. */
enum class Qual {
    Bare,    //!< no qualifier
    Std,     //!< std:: (possibly ::std::)
    Member,  //!< preceded by . or ->
    Other,   //!< some other X:: qualifier
};

Qual
qualifierBefore(const std::string &line, size_t ident_begin)
{
    size_t p = ident_begin;
    while (p > 0 && std::isspace(static_cast<unsigned char>(line[p - 1])))
        --p;
    if (p == 0)
        return Qual::Bare;
    if (line[p - 1] == '.')
        return Qual::Member;
    if (p >= 2 && line[p - 2] == '-' && line[p - 1] == '>')
        return Qual::Member;
    if (p >= 2 && line[p - 2] == ':' && line[p - 1] == ':') {
        size_t q = p - 2;
        size_t e = q;
        while (q > 0 && identChar(line[q - 1]))
            --q;
        std::string scope = line.substr(q, e - q);
        return (scope == "std" || scope.empty()) ? Qual::Std
                                                 : Qual::Other;
    }
    return Qual::Bare;
}

/**
 * Find call-like occurrences of identifier @p name in @p line: exact
 * identifier match, followed (after whitespace) by '(', and either
 * unqualified or std::-qualified.  Member calls (x.name(), x->name())
 * and foreign qualifiers (Foo::name() ) do not count.
 */
bool
hasBannedCall(const std::string &line, const std::string &name)
{
    size_t pos = 0;
    while ((pos = line.find(name, pos)) != std::string::npos) {
        size_t end = pos + name.size();
        bool boundary = (pos == 0 || !identChar(line[pos - 1])) &&
            (end >= line.size() || !identChar(line[end]));
        if (boundary) {
            size_t p = end;
            while (p < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[p])))
                ++p;
            if (p < line.size() && line[p] == '(') {
                Qual q = qualifierBefore(line, pos);
                if (q == Qual::Bare || q == Qual::Std)
                    return true;
            }
        }
        pos = end;
    }
    return false;
}

/** Whole-token substring occurrence (e.g. "std::priority_queue"). */
bool
hasBannedName(const std::string &line, const std::string &name)
{
    size_t pos = 0;
    while ((pos = line.find(name, pos)) != std::string::npos) {
        size_t end = pos + name.size();
        bool boundary = (pos == 0 || (!identChar(line[pos - 1]) &&
                                      line[pos - 1] != ':')) &&
            (end >= line.size() || !identChar(line[end]));
        if (boundary)
            return true;
        pos = end;
    }
    return false;
}

bool
containsToken(const std::string &text, const std::string &token)
{
    size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        size_t end = pos + token.size();
        if ((pos == 0 || !identChar(text[pos - 1])) &&
            (end >= text.size() || !identChar(text[end])))
            return true;
        pos = end;
    }
    return false;
}

struct NameRule
{
    const char *rule;
    const char *name;
    bool call;  //!< true: call-like identifier; false: plain name
    const char *message;
};

const NameRule kNameRules[] = {
    // wall-clock: host time leaks nondeterminism into simulations.
    {"wall-clock", "time", true,
     "wall-clock time source; simulated time is the tick counter "
     "(util/rng seeds randomness, Simulator::now() orders events)"},
    {"wall-clock", "clock", true,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "gettimeofday", true,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "clock_gettime", true,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "localtime", true,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "gmtime", true,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "std::chrono::system_clock", false,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "std::chrono::high_resolution_clock", false,
     "wall-clock time source; simulated time is the tick counter"},
    {"wall-clock", "std::chrono::steady_clock", false,
     "host timing in library code; if this is perf calibration that "
     "cannot change architectural output, annotate with "
     "nscs-lint: allow(wall-clock): <why>"},
    // raw-random: all randomness flows through util/rng.
    {"raw-random", "rand", true,
     "raw libc PRNG; use util/rng (Lfsr16 architectural, Xoshiro256 "
     "host-side) so draws are seeded and deterministic"},
    {"raw-random", "srand", true,
     "raw libc PRNG seeding; use util/rng"},
    {"raw-random", "random", true,
     "raw libc PRNG; use util/rng"},
    {"raw-random", "drand48", true,
     "raw libc PRNG; use util/rng"},
    {"raw-random", "lrand48", true,
     "raw libc PRNG; use util/rng"},
    {"raw-random", "rand_r", true,
     "raw libc PRNG; use util/rng"},
    {"raw-random", "std::random_device", false,
     "nondeterministic entropy source; use util/rng with an explicit "
     "seed"},
    {"raw-random", "std::mt19937", false,
     "std random engine; use util/rng (Xoshiro256) so all draws share "
     "one seeding discipline"},
    {"raw-random", "std::mt19937_64", false,
     "std random engine; use util/rng"},
    {"raw-random", "std::minstd_rand", false,
     "std random engine; use util/rng"},
    {"raw-random", "std::default_random_engine", false,
     "std random engine; use util/rng"},
    // raw-io: library output goes through util/logging.
    {"raw-io", "printf", true,
     "direct stdout write; report through util/logging "
     "(warn/fatal/panic) or return data to the caller"},
    {"raw-io", "vprintf", true,
     "direct stdout write; use util/logging"},
    {"raw-io", "puts", true,
     "direct stdout write; use util/logging"},
    {"raw-io", "putchar", true,
     "direct stdout write; use util/logging"},
    {"raw-io", "std::cout", false,
     "direct stdout write; use util/logging or return data"},
    {"raw-io", "std::cerr", false,
     "direct stderr write; use util/logging (warn) so tests "
     "can suppress it"},
    // priority-queue: the PR-3 self-event heap lesson.
    {"priority-queue", "std::priority_queue", false,
     "opaque heap in a tick path; use an explicit vector heap "
     "(std::push_heap/pop_heap) so stale entries can be lazily "
     "compacted and footprintBytes() can account for it"},
    // raw-serialize: persisted state must survive compilers,
    // endianness and struct-layout changes, so byte-image tricks are
    // banned; snapshots go through runtime/snapshot + util/json
    // (std::bit_cast for value-level bit reinterpretation is fine).
    {"raw-serialize", "reinterpret_cast", false,
     "raw byte reinterpretation; persistence must go through the "
     "snapshot API (runtime/snapshot + util/json), value punning "
     "through std::bit_cast"},
    {"raw-serialize", "memcpy", true,
     "raw byte copy of object representation; persist through the "
     "snapshot API (runtime/snapshot + util/json)"},
    {"raw-serialize", "memmove", true,
     "raw byte copy of object representation; persist through the "
     "snapshot API (runtime/snapshot + util/json)"},
    {"raw-serialize", "fread", true,
     "raw byte deserialization; persist through the snapshot API "
     "(runtime/snapshot + util/json)"},
    {"raw-serialize", "fwrite", true,
     "raw byte serialization; persist through the snapshot API "
     "(runtime/snapshot + util/json)"},
};

void
runNameRules(const std::string &path,
             const std::vector<std::string> &code_lines,
             std::vector<Finding> &findings)
{
    for (size_t i = 0; i < code_lines.size(); ++i) {
        const std::string &line = code_lines[i];
        if (line.empty())
            continue;
        for (const NameRule &r : kNameRules) {
            bool hit = r.call ? hasBannedCall(line, r.name)
                              : hasBannedName(line, r.name);
            if (hit) {
                findings.push_back({path,
                                    static_cast<uint32_t>(i + 1),
                                    r.rule,
                                    std::string(r.name) + ": " +
                                        r.message});
            }
        }
        // fprintf/vfprintf are legal only when aimed at stderr (what
        // util/logging does); stdout targets are raw-io findings.
        for (const char *fn : {"fprintf", "vfprintf"}) {
            size_t pos = 0;
            while ((pos = line.find(fn, pos)) != std::string::npos) {
                size_t end = pos + std::string(fn).size();
                bool boundary =
                    (pos == 0 || !identChar(line[pos - 1])) &&
                    (end >= line.size() || !identChar(line[end]));
                if (boundary) {
                    size_t p = end;
                    while (p < line.size() && (line[p] == ' ' ||
                                               line[p] == '('))
                        ++p;
                    if (line.compare(p, 6, "stdout") == 0) {
                        findings.push_back(
                            {path, static_cast<uint32_t>(i + 1),
                             "raw-io",
                             std::string(fn) +
                                 "(stdout, ...): direct stdout "
                                 "write; use util/logging"});
                    }
                }
                pos = end;
            }
        }
    }
}

/** True for the SIMD dispatch layer itself, where intrinsics live. */
bool
simdLayerFile(const std::string &path)
{
    return path.ends_with("util/simd.hh") ||
        path.ends_with("util/simd.cc");
}

/**
 * True when @p tok looks like a vendor SIMD intrinsic or vector
 * type: x86 `_mm*`/`__m*` reserved identifiers, NEON `v<op>q_<ty>`
 * intrinsics, or NEON `<elem>x<lanes>_t` vector types.
 */
bool
intrinsicToken(const std::string &tok)
{
    if (tok.rfind("_mm", 0) == 0 || tok.rfind("__m", 0) == 0)
        return true;
    size_t q = tok.find("q_");
    if (tok.size() > 4 && tok[0] == 'v' && q != std::string::npos &&
        q >= 2) {
        bool clean = true;  // vaddq_u8 yes, velocity_sq_ no
        for (size_t i = 1; i < q && clean; ++i)
            clean = std::isalnum(static_cast<unsigned char>(tok[i]));
        if (clean)
            return true;
    }
    if (tok.size() > 6 && tok.ends_with("_t")) {
        size_t x = tok.find('x', 1);
        if (x != std::string::npos && x + 1 < tok.size() &&
            std::isdigit(static_cast<unsigned char>(tok[x - 1])) &&
            std::isdigit(static_cast<unsigned char>(tok[x + 1])))
            return true;
    }
    return false;
}

const char *const kIntrinsicHeaders[] = {
    "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
    "pmmintrin.h", "smmintrin.h", "tmmintrin.h", "nmmintrin.h",
    "wmmintrin.h", "ammintrin.h", "arm_neon.h",  "arm_sve.h",
    "arm_acle.h",
};

/**
 * simd-guard: vendor intrinsics and intrinsic headers are confined
 * to the dispatch layer (src/util/simd.*), where the cpuid probe and
 * the NSCS_SIMD override keep every level reachable and testable.
 * Scans raw lines for intrinsic-header includes (stripToCode blanks
 * preprocessor directives) and code lines for intrinsic tokens.
 */
void
runSimdGuardRule(const std::string &path,
                 const std::vector<std::string> &raw_lines,
                 const std::vector<std::string> &code_lines,
                 std::vector<Finding> &findings)
{
    if (simdLayerFile(path))
        return;
    const char *msg =
        "raw SIMD intrinsics belong in the dispatch layer "
        "(src/util/simd.*) behind nscs::simd::ops(), so the runtime "
        "probe and the NSCS_SIMD override keep every level reachable";
    for (size_t i = 0; i < raw_lines.size(); ++i) {
        const std::string &line = raw_lines[i];
        size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos || line[b] != '#' ||
            line.find("include", b) == std::string::npos)
            continue;
        for (const char *hdr : kIntrinsicHeaders) {
            if (line.find(hdr) != std::string::npos) {
                findings.push_back({path,
                                    static_cast<uint32_t>(i + 1),
                                    "simd-guard",
                                    "#include <" + std::string(hdr) +
                                        ">: " + msg});
                break;
            }
        }
    }
    for (size_t i = 0; i < code_lines.size(); ++i) {
        const std::string &line = code_lines[i];
        size_t p = 0;
        while (p < line.size()) {
            if (!identChar(line[p])) {
                ++p;
                continue;
            }
            size_t b = p;
            while (p < line.size() && identChar(line[p]))
                ++p;
            std::string tok = line.substr(b, p - b);
            if (intrinsicToken(tok)) {
                findings.push_back({path,
                                    static_cast<uint32_t>(i + 1),
                                    "simd-guard",
                                    tok + ": " + msg});
                break;  // one finding per line
            }
        }
    }
}

/**
 * Flag mutable namespace-scope variable definitions.  Walks the
 * stripped code tracking brace kinds: namespace braces are
 * transparent (their contents stay "file scope"), everything else —
 * classes, functions, initializer lists — is opaque and skipped.
 * Statements at file scope ending in ';' are classified as variable
 * definitions unless they look like declarations (contain '(' before
 * any '=', or start with a declaration keyword) or carry a guard
 * (const/constexpr/constinit/thread_local/std::atomic).
 */
void
runFileScopeRule(const std::string &path, const std::string &code,
                 std::vector<Finding> &findings)
{
    std::vector<bool> transparent;  // brace stack
    std::string stmt;
    uint32_t line = 1;
    uint32_t stmt_line = 0;
    size_t opaque_depth = 0;

    auto atFileScope = [&] {
        return std::all_of(transparent.begin(), transparent.end(),
                           [](bool t) { return t; });
    };
    auto classify = [&] {
        size_t b = stmt.find_first_not_of(" \t\n");
        if (b == std::string::npos)
            return;
        std::string s = stmt.substr(b);
        for (const char *kw :
             {"using", "typedef", "template", "static_assert",
              "extern", "namespace", "class", "struct", "enum",
              "union", "friend", "operator"})
            if (containsToken(s, kw))
                return;
        size_t eq = s.find('=');
        size_t paren = s.find('(');
        if (paren != std::string::npos &&
            (eq == std::string::npos || paren < eq))
            return;  // function or constructor-style declaration
        for (const char *guard :
             {"const", "constexpr", "constinit", "thread_local"})
            if (containsToken(s, guard))
                return;
        if (s.find("std::atomic") != std::string::npos)
            return;
        // Must look like "type name ...;": at least two identifiers.
        size_t p = 0;
        int idents = 0;
        while (p < s.size() && idents < 2) {
            if (identChar(s[p])) {
                ++idents;
                while (p < s.size() && identChar(s[p]))
                    ++p;
            } else {
                ++p;
            }
        }
        if (idents < 2)
            return;
        findings.push_back(
            {path, stmt_line, "file-scope-state",
             "mutable file-scope state; make it const/constexpr, "
             "std::atomic, thread_local, or carry it in an object "
             "the callers own"});
    };

    for (size_t i = 0; i < code.size(); ++i) {
        char c = code[i];
        if (c == '\n')
            ++line;
        if (opaque_depth > 0) {
            if (c == '{')
                ++opaque_depth;
            else if (c == '}')
                --opaque_depth;
            if (opaque_depth == 0) {
                // A function definition's body is not followed by a
                // ';' — drop its header here or it would glue onto
                // (and mask) the next file-scope statement.  Variable
                // definitions keep a brace-group marker so classify()
                // sees "name = {}".
                size_t eq = stmt.find('=');
                size_t paren = stmt.find('(');
                bool func_like = paren != std::string::npos &&
                    (eq == std::string::npos || paren < eq);
                if (func_like) {
                    stmt.clear();
                    stmt_line = 0;
                } else {
                    stmt += "{}";
                }
            }
            continue;
        }
        if (c == '{') {
            if (containsToken(stmt, "namespace") && atFileScope()) {
                transparent.push_back(true);
                stmt.clear();
                stmt_line = 0;
            } else {
                opaque_depth = 1;
            }
        } else if (c == '}') {
            if (!transparent.empty())
                transparent.pop_back();
            stmt.clear();
            stmt_line = 0;
        } else if (c == ';') {
            if (atFileScope())
                classify();
            stmt.clear();
            stmt_line = 0;
        } else {
            if (stmt_line == 0 &&
                !std::isspace(static_cast<unsigned char>(c)))
                stmt_line = line;
            stmt += c;
        }
    }
}

struct AllowComment
{
    uint32_t line = 0;
    std::string rule;
};

/**
 * Collect "nscs-lint: allow(<rule>): <reason>" comments from the raw
 * lines.  Malformed allows (unknown rule, missing reason) become
 * bad-allow findings immediately.
 */
std::vector<AllowComment>
collectAllows(const std::string &path,
              const std::vector<std::string> &raw_lines,
              std::vector<Finding> &findings)
{
    std::vector<AllowComment> allows;
    const std::string marker = "nscs-lint: allow(";
    for (size_t i = 0; i < raw_lines.size(); ++i) {
        const std::string &line = raw_lines[i];
        size_t pos = line.find(marker);
        if (pos == std::string::npos)
            continue;
        auto ln = static_cast<uint32_t>(i + 1);
        size_t rb = pos + marker.size();
        size_t re = line.find(')', rb);
        if (re == std::string::npos) {
            findings.push_back({path, ln, "bad-allow",
                                "unterminated allow(...) comment"});
            continue;
        }
        std::string rule = line.substr(rb, re - rb);
        const auto &ids = ruleIds();
        if (std::find(ids.begin(), ids.end(), rule) == ids.end()) {
            findings.push_back({path, ln, "bad-allow",
                                "allow names unknown rule '" + rule +
                                    "'"});
            continue;
        }
        size_t p = re + 1;
        while (p < line.size() && (line[p] == ':' || line[p] == ' '))
            ++p;
        if (line.size() - p < 3 || line.find(':', re) == std::string::npos) {
            findings.push_back(
                {path, ln, "bad-allow",
                 "allow(" + rule + ") needs a reason: "
                 "// nscs-lint: allow(" + rule + "): <why>"});
            continue;
        }
        allows.push_back({ln, rule});
    }
    return allows;
}

} // anonymous namespace

const std::vector<std::string> &
ruleIds()
{
    static const std::vector<std::string> kIds = {
        "wall-clock",     "raw-random",       "raw-io",
        "priority-queue", "raw-serialize",    "file-scope-state",
        "simd-guard",     "bad-allow",
    };
    return kIds;
}

bool
lintableFile(const std::string &path)
{
    auto ends = [&](const char *suf) {
        std::string s(suf);
        return path.size() >= s.size() &&
            path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return ends(".hh") || ends(".cc");
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    std::vector<Finding> findings;
    std::vector<std::string> raw_lines = splitLines(content);
    std::string code = stripToCode(content);
    std::vector<std::string> code_lines = splitLines(code);

    std::vector<AllowComment> allows =
        collectAllows(path, raw_lines, findings);

    runNameRules(path, code_lines, findings);
    runFileScopeRule(path, code, findings);
    runSimdGuardRule(path, raw_lines, code_lines, findings);

    // An allow on the finding's line or the line above waives it;
    // bad-allow findings are never waivable.
    std::erase_if(findings, [&](const Finding &f) {
        if (f.rule == "bad-allow")
            return false;
        for (const AllowComment &a : allows)
            if (a.rule == f.rule &&
                (a.line == f.line || a.line + 1 == f.line))
                return true;
        return false;
    });

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

} // namespace nscs::lint

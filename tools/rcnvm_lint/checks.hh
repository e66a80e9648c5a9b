/**
 * rcnvm-lint checks.
 *
 * Per-file checks (checkFile):
 *   RL001 determinism     — iteration over unordered containers (or
 *                           pointer-keyed ordered ones) whose loop
 *                           body reaches an order-sensitive sink:
 *                           stat registration, event scheduling, or
 *                           container insertion. Suppress with
 *                           `// rcnvm-lint: ordered-ok`.
 *   RL002 strong types    — raw uint64_t parameters in src/mem,
 *                           src/sim, src/cpu whose names say they
 *                           carry ticks/cycles/row/col — the typed
 *                           vocabulary (Tick, CpuCycles, MemCycles,
 *                           RowAddr, ColAddr) must not be opted out
 *                           of. Suppress with `rcnvm-lint: raw-ok`.
 *   RL003 event safety    — lambdas passed to schedule/scheduleAfter/
 *                           inject/post that capture locals by
 *                           reference; the slab event queue outlives
 *                           any enclosing scope. Suppress with
 *                           `rcnvm-lint: capture-ok`.
 *   RL004 strict parsing  — direct strtoull/atoi/stoi-family calls
 *                           outside src/util (util::parseUint64 is
 *                           the one strict parser). Suppress with
 *                           `rcnvm-lint: parse-ok`.
 *
 * Cross-file check (StatNameCheck):
 *   RL005 stat hygiene    — every statistic name consumed by bench/,
 *                           tests/, src/ formula bodies, or the
 *                           DESIGN.md §4c table must resolve against
 *                           a registration in src/ (CI also runs
 *                           it alone: `--stat-names-only`).
 */
#ifndef RCNVM_TOOLS_LINT_CHECKS_HH_
#define RCNVM_TOOLS_LINT_CHECKS_HH_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hh"

namespace rcnvm::lint {

struct Diag {
    std::string path;
    int line = 0;
    int col = 0;
    std::string id;  //!< "RL001".."RL005"
    std::string msg;
    /** Baseline key: id|path|salient-token. Line-number free so a
     *  baselined legacy finding survives unrelated edits above it. */
    std::string key;
};

/** Run RL001–RL004 over one lexed file. */
void checkFile(const SourceFile &f, std::vector<Diag> &out);

/** RL005 corpus + verdicts. Feed every relevant file, then have
 *  check() resolve consumers against registrations. */
class StatNameCheck
{
  public:
    /** Registration + formula-lookup side: files under src/. */
    void addSrcFile(const SourceFile &f);
    /** Consumer side: files under bench/ and tests/. */
    void addConsumerFile(const SourceFile &f);
    /** The DESIGN.md §4c statistics table. */
    void addDesignDoc(const std::string &text);

    void check(std::vector<Diag> &out) const;

    bool sawRegistrations() const { return !names_.empty(); }

  private:
    struct Site {
        std::string path;
        int line = 0;
    };

    std::set<std::string> names_;
    std::set<std::string> prefixes_;
    std::set<std::string> suffixes_;
    std::map<std::string, std::vector<Site>> consumed_;
};

} // namespace rcnvm::lint

#endif // RCNVM_TOOLS_LINT_CHECKS_HH_

/**
 * @file
 * bh_lint: the repo's in-tree static analyzer.
 *
 * Every correctness claim this repo makes — byte-identical BENCH_*.json
 * for any --jobs/--cell/--skip combination, observation-only TraceSink
 * and SecurityOracle hooks — is enforced dynamically by differential
 * tests that re-run the simulator. bh_lint enforces the *source
 * patterns* behind those claims statically, so a new Mitigation or
 * experiment that would break them fails at CI time instead of one grid
 * cell at a time. Rules (see rules.cc):
 *
 *   R1 nondet          banned nondeterminism sources in simulation code:
 *                      rand/srand/time()/wall-clock now(), and
 *                      pointer-valued map/set ordering keys.
 *   R2 unordered-iter  no iteration over std::unordered_{map,set}
 *                      (iteration order is stdlib-specific); go through
 *                      sortedItems()/sortedKeys() from common/ordered.hh.
 *   R3 trace-gate      every TraceSink emit call lexically gated on
 *                      TraceSink::on(); observer hook headers take only
 *                      const simulation state.
 *   R4 rng-discipline  all randomness flows through bh::Rng seeded from
 *                      pure seed expressions; no <random>, random_device,
 *                      mt19937, or nondeterministically-seeded Rng.
 *   R5 member-init     POD-typed data members in src/ carry in-class
 *                      initializers (uninitialized members are UB bait
 *                      and a determinism hazard when structs are copied
 *                      into reports before every field is assigned).
 *
 * A finding is suppressed by an annotation on its line or the line
 * directly above:
 *
 *     // bh-lint: allow(<rule>[, <rule>...]) <reason>
 *
 * The reason is mandatory; an allow() without one is itself a finding
 * (rule "bad-suppression"). A checked-in baseline file
 * (.bh_lint_baseline) makes adoption incremental: baselined findings
 * are reported only with --show-baselined and do not fail the run;
 * `bh_lint --fix-baseline` regenerates the file. Baseline entries key
 * on (rule, path, hash of the normalized source line), so findings
 * survive unrelated line-number drift but go stale when the offending
 * line itself changes — exactly when a human should re-look.
 */

#ifndef BH_LINT_LINT_HH
#define BH_LINT_LINT_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace bh::lint
{

/** One rule violation at a source location. */
struct Finding
{
    std::string rule;       ///< rule id, e.g. "nondet"
    std::string path;       ///< repo-relative path as scanned
    int line = 0;           ///< 1-based
    std::string message;
    std::string lineText;   ///< raw source line (for baseline hashing)
};

/** Rule ids in catalog order (bad-suppression is implicit). */
std::vector<std::string> ruleIds();

/** One-line description of a rule id ("" for unknown ids). */
std::string ruleDescription(const std::string &rule);

/**
 * Run every rule over one tokenized file. `path` should be the
 * repo-relative path (rule scoping and allowlists match on it).
 * Suppression annotations are applied; malformed ones are reported.
 * `extra` names additional unordered-container variables declared
 * outside this file (runLint feeds the paired header's members in, so
 * an .cc iterating a member declared in its .hh is still caught by
 * rule R2).
 */
struct UnorderedNames
{
    /// Variables whose own type is an unordered container.
    std::set<std::string> direct;
    /// Variables of ordered-container-of-unordered type
    /// (vector<unordered_map<...>>): iterating them is safe, but their
    /// elements are unordered, so range-for loop variables get tainted.
    std::set<std::string> containers;
};
std::vector<Finding> lintFile(const LexedFile &file,
                              const UnorderedNames &extra);
std::vector<Finding> lintFile(const LexedFile &file);

/** Unordered-container variables/members declared in `file` (R2
 *  bookkeeping; exposed so runLint can pair headers with sources). */
UnorderedNames unorderedNames(const LexedFile &file);

/**
 * Recursively collect the .cc/.hh/.cpp files under `root`/`dirs`,
 * skipping tests/lint_fixtures (intentional violations used by
 * tests/test_lint.cc). Returned paths are repo-relative and sorted.
 */
std::vector<std::string> collectSources(const std::string &root,
                                        const std::vector<std::string> &dirs);

/** Lint a set of repo-relative files under `root`. */
std::vector<Finding> runLint(const std::string &root,
                             const std::vector<std::string> &files,
                             std::vector<std::string> *ioErrors = nullptr);

/** Stable 64-bit hash of a finding's identity line (FNV-1a over the
 *  rule and the whitespace-normalized source line). */
std::uint64_t findingHash(const Finding &finding);

/** Serialize findings to baseline-file text (sorted, deterministic). */
std::string formatBaseline(const std::vector<Finding> &findings);

/**
 * Parse baseline text. Returns false on a malformed line (message in
 * `err`). Entries are (rule, path, hash) triples with multiplicity.
 */
struct BaselineEntry
{
    std::string rule;
    std::string path;
    std::uint64_t hash = 0;
};
bool parseBaseline(const std::string &text,
                   std::vector<BaselineEntry> &out, std::string &err);

/**
 * Split `findings` into new findings (returned) and baselined ones
 * (appended to `baselined` when non-null). Each baseline entry absorbs
 * at most one finding.
 */
std::vector<Finding>
filterBaseline(const std::vector<Finding> &findings,
               const std::vector<BaselineEntry> &baseline,
               std::vector<Finding> *baselined = nullptr);

} // namespace bh::lint

#endif // BH_LINT_LINT_HH

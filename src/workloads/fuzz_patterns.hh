/**
 * @file
 * Blacksmith-style frequency-domain attack-pattern generator.
 *
 * The static catalog in attack_patterns.hh encodes *hand-written*
 * evasion strategies. The strongest known RowHammer patterns, however,
 * are *searched*, not written: Blacksmith/ZenHammer describe an
 * aggressor set in the frequency domain — per aggressor pair, how often
 * it fires within a base period, at which phase offset, and with what
 * amplitude — and fuzz that space against the deployed mitigation. This
 * module is the simulator-side equivalent: a parameter vector
 * (FuzzPatternParams) that compiles, through the existing AttackPattern
 * interface, into a cyclic trace lap with a declared ACT-rate envelope,
 * plus the sampling/mutation operators and the compact serialization
 * the red-team search driver (analysis/red_team.hh) and the secsweep
 * regression catalog build on.
 *
 * Determinism contract: a fuzz pattern's lap is a pure function of its
 * parameter vector and the AttackEnv it is resolved against — unlike
 * the seeded catalog families it draws no RNG at compile time, so the
 * serialized form (seed + parameter vector) replays bit-exactly on any
 * machine, in any one-cell run or farm worker, at any thread count.
 */

#ifndef BH_WORKLOADS_FUZZ_PATTERNS_HH
#define BH_WORKLOADS_FUZZ_PATTERNS_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "workloads/attack_patterns.hh"

namespace bh
{

/**
 * Bounds of the fuzzer's search space. sampleFuzzPattern draws every
 * parameter uniformly (slot gaps log-uniformly) from these ranges and
 * mutateFuzzPattern clamps back into them, so one FuzzSpace value fully
 * describes what the search can ever emit. `bh_bench --list` prints
 * describe() next to the static catalog envelopes.
 */
struct FuzzSpace
{
    unsigned minBanks = 1;          ///< banks hammered concurrently
    unsigned maxBanks = 16;
    unsigned minPairs = 1;          ///< double-sided aggressor pairs
    unsigned maxPairs = 8;
    std::uint32_t minPeriod = 4;    ///< lap length in slots
    std::uint32_t maxPeriod = 64;
    std::uint32_t maxAmp = 4;       ///< consecutive pair repeats per firing
    std::int32_t maxRowOffset = 256;    ///< |victim-site offset| from baseRow
    RowId minBaseRow = 1024;        ///< victim-anchor row range
    RowId maxBaseRow = 8192;
    std::uint32_t maxSlotGap = 16384;   ///< pacing bubbles after each slot

    /** One-line human-readable bounds summary (for --list / docs). */
    std::string describe() const;
};

/** Default search space shared by the fuzz experiment and tests. */
const FuzzSpace &defaultFuzzSpace();

/**
 * Sample a fresh parameter vector uniformly from `space`. Every draw
 * comes from `rng` in a fixed order, so a seed reproduces the pattern.
 */
FuzzPatternParams sampleFuzzPattern(const FuzzSpace &space, Rng &rng);

/**
 * Mutate one parameter vector: 1-3 moves, each tweaking a pair's
 * frequency/phase/amplitude/site, re-anchoring the victim base row,
 * resizing the period or bank spread, adding/dropping a pair, or
 * re-pacing the slot gap — all clamped back into `space`.
 */
FuzzPatternParams mutateFuzzPattern(const FuzzPatternParams &params,
                                    const FuzzSpace &space, Rng &rng);

/**
 * Compact replayable form: "fz1:s<seed-hex>:b<first>+<banks>:r<base>:
 * p<period>:g<gap>:a<off>/<freq>/<phase>/<amp>[,...]". This string is
 * the permanent identity of a found pattern — regression cells store it
 * verbatim and parseFuzzPattern round-trips it bit-exactly.
 */
std::string serializeFuzzPattern(const FuzzPatternParams &params);

/**
 * Parse a serialized pattern. Returns false (and fills `err` when
 * non-null) on malformed input; accepts only the "fz1" format emitted
 * by serializeFuzzPattern.
 */
bool parseFuzzPattern(const std::string &text, FuzzPatternParams &out,
                      std::string *err = nullptr);

/**
 * Wrap a parameter vector in an AttackPatternSpec (Family::kFuzz) so it
 * flows through the normal pattern machinery: PatternTrace compiles it,
 * maxRowActsPerWindow declares its envelope, mixes can run it. `name`
 * defaults to the serialized form.
 */
AttackPatternSpec fuzzPatternSpec(const FuzzPatternParams &params,
                                  const std::string &name = "",
                                  const std::string &summary = "");

/** Mix-app prefix for an inline fuzz pattern ("fuzz:<serialized>"). */
inline const std::string kFuzzPatternPrefix = "fuzz:";

/** "fuzz:<serialized>" — the mix-app spelling of a fuzz pattern. */
inline std::string
fuzzPatternApp(const FuzzPatternParams &params)
{
    return kFuzzPatternPrefix + serializeFuzzPattern(params);
}

/**
 * Resolve a "fuzz:<serialized>" mix app to its spec. Returns false on
 * anything that is not a parseable fuzz app.
 */
bool fuzzSpecForApp(const std::string &app, AttackPatternSpec &out,
                    std::string *err = nullptr);

// --- internals shared with attack_patterns.cc -------------------------

/**
 * Compile the cyclic lap of a kFuzz spec (called by PatternTrace).
 * Layout mirrors the catalog families: each slot's row sequence is
 * emitted bank-outer across the declared bank range, followed by the
 * slot's pacing gap (a non-memory entry of `slotGap` bubbles).
 */
void compileFuzzLap(const AttackPatternSpec &spec,
                    const AddressMapper &mapper, const AttackEnv &env,
                    std::vector<TraceEntry> &entries);

/**
 * Declared envelope of a kFuzz spec: an upper bound on the activations
 * any single row can receive within one tREFW window, derived from the
 * lap itself — the hottest row's count per lap times the number of laps
 * a window can contain, where the minimum lap duration is the larger of
 * the per-bank ACT pipeline time and the issue time of the lap's
 * instructions (accesses plus pacing bubbles), with the catalog's
 * standard 25% + 16 slack for queueing jitter. See DESIGN.md.
 */
std::uint64_t fuzzMaxRowActsPerWindow(const AttackPatternSpec &spec,
                                      const AttackEnv &env);

/** Human-readable envelope formula of a kFuzz spec (--list / docs). */
std::string fuzzEnvelopeDescr(const AttackPatternSpec &spec);

// --- permanent regression cells ---------------------------------------

/**
 * One fuzzer-found pattern promoted to a permanent secsweep regression
 * cell: the serialized parameter vector plus the oracle verdict
 * measured when it was found (scale-1 security configuration, the
 * recorded mechanism and channel count). tests/test_fuzz.cc replays
 * every cell and asserts the margin reproduces exactly.
 */
struct FuzzRegressionCell
{
    const char *name = nullptr;       ///< catalog name ("fuzz-<mech>-<k>")
    const char *summary = nullptr;    ///< one-line description (--list)
    const char *serialized = nullptr; ///< the replayable parameter vector
    const char *mechanism = nullptr;  ///< mechanism it was found against
    unsigned channels = 0;            ///< channel count of the finding run
    std::uint64_t foundMaxWindowActs = 0;   ///< oracle peak when found
    double foundMargin = 0.0;   ///< foundMaxWindowActs / N_RH
};

/** All promoted regression cells (see src/workloads/fuzz_regressions.cc). */
const std::vector<FuzzRegressionCell> &fuzzRegressionCells();

/**
 * The regression cells as catalog-ready specs; attackPatternCatalog
 * appends these, which is what makes every promoted pattern a permanent
 * secsweep cell (and subject to the envelope property tests).
 */
const std::vector<AttackPatternSpec> &fuzzRegressionSpecs();

} // namespace bh

#endif // BH_WORKLOADS_FUZZ_PATTERNS_HH

/**
 * @file
 * Red-team search driver: adversarial evolutionary search over the
 * frequency-domain fuzz-pattern space against one deployed mitigation.
 *
 * Methodology (Blacksmith-style, adapted to a deterministic simulator —
 * see DESIGN.md "Security verification"):
 *
 *   1. *Generate*: sample a population of FuzzPatternParams vectors
 *      uniformly from the FuzzSpace bounds.
 *   2. *Evaluate*: run each pattern through the normal experiment
 *      harness (one attacker thread + the security benign trio) with the
 *      SecurityOracle attached, scoring by the measured disturbance
 *      margin, then ground-truth bit flips, then the raw window peak.
 *   3. *Select & mutate*: keep the top `survivors`, refill the
 *      population with their mutations, and iterate for `generations`.
 *
 * Determinism contract: the whole chain draws from ONE SplitMix64
 * stream seeded with RedTeamConfig::seed, evaluations are memoized by
 * serialized pattern (an elitist survivor is never re-simulated), and
 * ties are broken by the serialized string — so a (config, seed) pair
 * fully determines every pattern tried, every score, and the final
 * best. Each search chain is self-contained ("island model"): the
 * bench-level fuzz experiment runs one chain per (mechanism, island)
 * sweep cell, which keeps cells independent and lets the fuzz grid
 * farm/--cell/--list like any other experiment.
 */

#ifndef BH_ANALYSIS_RED_TEAM_HH
#define BH_ANALYSIS_RED_TEAM_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "workloads/fuzz_patterns.hh"

namespace bh
{

/** One red-team search chain's configuration. */
struct RedTeamConfig
{
    /**
     * Experiment the patterns are evaluated under. Must have the
     * SecurityOracle enabled and one thread more than `benignApps` (the
     * attacker takes slot 0). Use the bench layer's securityConfig so a
     * found pattern replays under exactly the finding conditions.
     */
    ExperimentConfig base;
    /** Benign co-runner apps filling threads 1..N-1 of every mix. */
    std::vector<std::string> benignApps;
    /** Search-space bounds patterns are sampled from / mutated within. */
    FuzzSpace space;
    unsigned population = 6;    ///< patterns evaluated per generation
    unsigned generations = 4;   ///< selection/mutation rounds
    unsigned survivors = 2;     ///< elites kept (and mutated) per round
    /** Master seed of the chain: the single RNG stream every sample and
     *  mutation draws from, and the provenance seed stamped into every
     *  pattern this chain emits. */
    std::uint64_t seed = 1;
};

/** One evaluated pattern with its oracle verdict. */
struct RedTeamAttempt
{
    FuzzPatternParams params;
    std::string serialized;     ///< replayable form (pattern identity)
    unsigned generation = 0;    ///< round it was first evaluated in
    double margin = 0.0;        ///< max window ACTs / N_RH
    std::uint64_t maxWindowActs = 0;
    std::uint64_t bitFlips = 0;
    std::uint64_t blockedActs = 0;
    double attackIpc = 0.0;
};

/**
 * Attack-strength order: higher disturbance margin first, then more
 * ground-truth bit flips, then the higher raw window peak; final
 * tie-break on the serialized string keeps sorts deterministic.
 */
bool strongerAttempt(const RedTeamAttempt &a, const RedTeamAttempt &b);

/** Outcome of one search chain. */
struct RedTeamResult
{
    RedTeamAttempt best;        ///< strongest pattern ever evaluated
    std::vector<RedTeamAttempt> generationBest;     ///< per round
    unsigned evaluations = 0;   ///< simulations actually run
    unsigned memoHits = 0;      ///< re-scored patterns served from memo
};

/** Run one deterministic search chain (see the file comment). */
RedTeamResult redTeamSearch(const RedTeamConfig &cfg);

} // namespace bh

#endif // BH_ANALYSIS_RED_TEAM_HH

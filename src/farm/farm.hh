/**
 * @file
 * bh_farm: a filesystem-based, fault-tolerant work-stealing coordinator
 * for bh_bench sweep grids.
 *
 * A farm directory owns one experiment grid (identified by the grid
 * fingerprint every BENCH_*.json manifest carries). Worker processes lease
 * cells through atomically-claimed lease files, run them, and commit
 * results with crash-safe writes; dead or hung workers are detected by
 * heartbeat timestamps and per-cell wall-clock budgets, their leases
 * stolen and re-leased with capped exponential backoff, and a cell that
 * keeps failing is quarantined as poisoned after K attempts instead of
 * retried forever. All state transitions go through temp+fsync+rename
 * (or exclusive link) so a SIGKILL at any instruction leaves the
 * directory resumable; an append-only journal records the history.
 *
 * Layering: this library is simulation-free — it schedules opaque cell
 * indices and stores opaque JSON payloads. The bh_farm CLI plugs in the
 * bench registry as the cell runner and replays the experiment's
 * aggregation over the collected payloads, so the merged output is
 * byte-identical to a plain bh_bench run no matter how many crashes,
 * retries, or duplicate executions occurred.
 *
 * Disk layout of a farm directory:
 *
 *   farm.json          grid spec + policy (written once by init)
 *   journal.jsonl      append-only event history (audit, not state)
 *   leases/            cell_N.json / vcell_N.json exclusive lease files
 *   done/              cell_N.json committed {cell, digest, payload}
 *   verify/            cell_N.json digest-agreement markers
 *   fails/             cell_N.json attempt counts + backoff deadlines
 *   poison/            cell_N.json cells quarantined after K failures
 *   workers/           <worker>.json heartbeat timestamps
 *   faults/            fired fault-injection markers (FaultPlan)
 */

#ifndef BH_FARM_FARM_HH
#define BH_FARM_FARM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "farm/clock.hh"
#include "farm/fault.hh"

namespace bh
{

/** Retry/lease policy of a farm (persisted in farm.json). */
struct FarmPolicy
{
    /** Failures before a cell is poisoned (never retried again). */
    unsigned maxAttempts = 3;
    /**
     * Per-cell wall-clock budget in seconds; a cell still running at
     * the deadline is failed by the worker's watchdog. <= 0 disables.
     */
    double cellBudgetS = 600.0;
    /**
     * A lease is stale when its owner's heartbeat is older than this,
     * or the lease itself is older than cellBudgetS + this (backstop
     * for abandoned leases of live workers).
     */
    double staleAfterS = 60.0;
    /** Exponential backoff after a failure: base * 2^(attempts-1). */
    double backoffBaseS = 0.5;
    /** Backoff ceiling in seconds. */
    double backoffCapS = 30.0;
    /**
     * Planned double execution: every cell with fnv1a64(fingerprint +
     * ":" + cell) % verifyEvery == 0 is run a second time by another
     * lease and its digest must agree with the committed one. 0 = off;
     * 1 = verify every cell.
     */
    unsigned verifyEvery = 0;
    /** Watchdog/heartbeat wait slice in seconds (test knob). */
    double watchdogSliceS = 1.0;
};

/** Grid identity + policy of a farm directory. */
struct FarmSpec
{
    std::string experiment;
    double scale = 1.0;
    unsigned channels = 1;
    unsigned channelThreads = 1;
    std::string attackFilter;
    std::string fingerprint;        ///< bench grid fingerprint (hex)
    std::uint64_t cellTotal = 0;
    FarmPolicy policy;

    Json toJson() const;
    static bool fromJson(const Json &doc, FarmSpec &out, std::string &err);
};

/** File/directory layout of a farm directory. */
struct FarmPaths
{
    std::string root;

    explicit FarmPaths(std::string root_dir = ".")
        : root(std::move(root_dir))
    {}

    std::string specFile() const { return root + "/farm.json"; }
    std::string journalFile() const { return root + "/journal.jsonl"; }
    std::string leaseDir() const { return root + "/leases"; }
    std::string doneDir() const { return root + "/done"; }
    std::string verifyDir() const { return root + "/verify"; }
    std::string failDir() const { return root + "/fails"; }
    std::string poisonDir() const { return root + "/poison"; }
    std::string workerDir() const { return root + "/workers"; }
    std::string faultDir() const { return root + "/faults"; }

    std::string leaseFile(std::uint64_t cell, bool verify) const;
    std::string doneFile(std::uint64_t cell) const;
    std::string verifyFile(std::uint64_t cell) const;
    std::string failFile(std::uint64_t cell) const;
    std::string poisonFile(std::uint64_t cell) const;
    std::string heartbeatFile(const std::string &worker) const;
};

/** Aggregate view of a farm's progress (one disk scan). */
struct FarmStatus
{
    std::uint64_t cellTotal = 0;
    std::uint64_t doneCells = 0;        ///< valid committed results
    std::uint64_t verifyWanted = 0;     ///< cells selected for re-execution
    std::uint64_t verifiedCells = 0;    ///< double-executions that agreed
    std::uint64_t activeLeases = 0;
    std::uint64_t staleLeases = 0;
    std::uint64_t backoffCells = 0;     ///< failed, waiting for retry
    std::uint64_t pendingCells = 0;     ///< never started / needs rerun
    std::vector<std::uint64_t> poisoned;    ///< sorted cell indices
    std::uint64_t journalCorruptEvents = 0; ///< quarantines ever journaled

    /** Grid fully computed (and verified where selected), no poison. */
    bool complete = false;
};

/**
 * One farm directory handle. Farm objects hold no protocol state in
 * memory beyond the spec — every operation reads and mutates the
 * directory, which is what makes coordinator/worker restart trivial.
 * Not thread-safe; give each thread (or process) its own Farm.
 */
class Farm
{
  public:
    /**
     * Create a farm directory: subdirectories plus farm.json. Fails if
     * the directory already holds a farm of a different grid; re-init
     * of the identical grid is a no-op (resume-friendly).
     */
    static bool init(const std::string &dir, const FarmSpec &spec,
                     FarmClock &clock, std::string &err);

    /** Open an existing farm directory (recreates missing subdirs). */
    static bool open(const std::string &dir, FarmClock &clock, Farm &out,
                     std::string &err);

    Farm() = default;

    const FarmSpec &spec() const { return spec_; }
    const FarmPaths &paths() const { return paths_; }

    /** True when `cell` is selected for planned double execution. */
    bool verifySelected(std::uint64_t cell) const;

    /** Refresh this worker's heartbeat file (crash-safe write). */
    void heartbeat(const std::string &worker);

    /** A claimed unit of work. */
    struct Claim
    {
        std::uint64_t cell = 0;
        unsigned attempt = 1;   ///< 1 + recorded failures at claim time
        bool verify = false;    ///< digest-agreement re-execution
        /**
         * Double-claim fault: this claim holds no lease file (it models
         * a spuriously doubled exclusive claim) and must not release
         * the legitimate owner's lease on commit.
         */
        bool ghost = false;
    };

    /** Scheduling decision of one pickWork call. */
    enum class Pick
    {
        kClaimed,   ///< `claim` holds work; call runClaim
        kWait,      ///< work exists but is leased out or backing off
        kComplete,  ///< grid fully done (+ verified), nothing poisoned
        kStuck      ///< only poisoned cells remain: farm cannot finish
    };

    /**
     * Scan the directory and claim the lowest-indexed runnable cell.
     * Steals stale leases (recording the failure with backoff, not
     * claiming immediately), quarantines corrupt committed results, and
     * poisons cells that exhausted their attempts — whichever worker
     * scans first performs the repair. On kWait, `wait_hint_s` (when
     * non-null) receives a suggested sleep before rescanning.
     */
    Pick pickWork(const std::string &worker, const FaultPlan &faults,
                  Claim &claim, double *wait_hint_s = nullptr);

    /** What happened to one claim. */
    enum class RunOutcome
    {
        kCommitted,         ///< result committed (possibly fault-mangled)
        kDupAgree,          ///< another commit beat us; digests agree
        kDupMismatch,       ///< digest disagreement: cell flagged + reset
        kFailed,            ///< runner threw; failure recorded + backoff
        kWatchdog,          ///< cell exceeded its wall-clock budget
        kKilled,            ///< kill fault fired: caller must die NOW
        kVerifyOk,          ///< double execution agreed
        kVerifyMismatch,    ///< double execution disagreed: cell reset
        kVerifyMoot         ///< committed result vanished before compare
    };

    /**
     * Execute one claim through `runner` (cell index -> payload JSON)
     * under the per-cell watchdog, then commit/compare/record per the
     * outcome table above. `runner` runs on a helper thread; if the
     * watchdog fires, the thread is left running and the caller should
     * exit the process (CLI) or unblock the runner and join via
     * strayThread() (tests). `detail` receives a human-readable reason
     * for failure outcomes.
     */
    RunOutcome runClaim(const std::string &worker, const Claim &claim,
                        const std::function<Json(std::uint64_t)> &runner,
                        const FaultPlan &faults, std::string &detail);

    /** Aggregate progress scan (also performs the repairs pickWork does). */
    FarmStatus status(const std::string &worker = "status");

    /**
     * Collect every committed payload into an object keyed by cell
     * index ("0".."N-1", ascending). Fails (with a diagnostic) unless
     * the farm is complete. The digests recorded at commit time are
     * revalidated against the payload bytes first, so a record edited
     * after commit fails the collect naming its file.
     */
    bool collectCells(Json &cells, std::string &err);

    /**
     * The runner thread a fired watchdog abandoned (joinable at most
     * once, after the runner has been unblocked). Tests use this to
     * stay leak-clean; the CLI never calls it and _Exits instead.
     */
    std::thread &strayThread() { return stray_; }

  private:
    struct LeaseInfo
    {
        std::uint64_t cell = 0;
        std::string worker;
        unsigned attempt = 1;
        double claimUnix = 0.0;
        bool verify = false;
    };

    struct FailInfo
    {
        std::uint64_t cell = 0;
        unsigned attempts = 0;
        double lastFailUnix = 0.0;
        double nextRetryUnix = 0.0;
        std::vector<std::string> reasons;
    };

    /** Per-cell disk state assembled by scan(). */
    struct CellView
    {
        bool done = false;              ///< valid committed result
        std::string doneDigest;
        bool verified = false;
        bool poisoned = false;
        bool hasLease = false;
        LeaseInfo lease;
        bool hasVerifyLease = false;
        LeaseInfo verifyLease;
        bool hasFail = false;
        FailInfo fail;
    };

    std::map<std::uint64_t, CellView> scan(const std::string &worker);

    bool leaseStale(const LeaseInfo &lease, double now) const;
    void stealLease(const std::string &worker, const LeaseInfo &lease,
                    bool verify);
    void recordFailure(const std::string &worker, std::uint64_t cell,
                       const std::string &reason);
    void journal(const std::string &event, std::uint64_t cell,
                 const std::string &worker, unsigned attempt = 0,
                 const std::string &detail = "");
    bool runWithWatchdog(const std::string &worker,
                         const std::function<Json(std::uint64_t)> &runner,
                         std::uint64_t cell, Json &payload,
                         std::string &detail);
    RunOutcome commitCell(const std::string &worker, const Claim &claim,
                          const Json &payload, const FaultPlan &faults,
                          std::string &detail);
    RunOutcome verifyCell(const std::string &worker, const Claim &claim,
                          const Json &payload, std::string &detail);

    FarmSpec spec_;
    FarmPaths paths_;
    FarmClock *clock_ = nullptr;
    std::thread stray_;
};

} // namespace bh

#endif // BH_FARM_FARM_HH

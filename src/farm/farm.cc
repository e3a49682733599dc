#include "farm/farm.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>

#include "common/bitutils.hh"
#include "common/fsio.hh"
#include "common/log.hh"
#include "farm/journal.hh"
#include "report/report.hh"

namespace fs = std::filesystem;

namespace bh
{

namespace
{

/** cell_%llu with fixed width so directory listings sort numerically. */
std::string
cellName(std::uint64_t cell)
{
    return strfmt("cell_%08llu.json", static_cast<unsigned long long>(cell));
}

/** Parse the cell index out of a cell_NNNNNNNN.json file name. */
bool
cellOfName(const std::string &name, const char *prefix, std::uint64_t &out)
{
    std::size_t plen = std::string(prefix).size();
    if (name.rfind(prefix, 0) != 0 || name.size() <= plen + 5 ||
        name.compare(name.size() - 5, 5, ".json") != 0)
        return false;
    char *end = nullptr;
    out = std::strtoull(name.c_str() + plen, &end, 10);
    return end && *end == '.';
}

/** Load + parse a small JSON state file; false on any problem. */
bool
loadJsonFile(const std::string &path, Json &out)
{
    std::string text, err;
    if (!readFile(path, text, err))
        return false;
    return Json::parse(text, out) && out.type() == Json::Type::Object;
}

double
numField(const Json &doc, const char *key, double fallback = 0.0)
{
    const Json *v = doc.find(key);
    return v ? v->asDouble() : fallback;
}

std::string
strField(const Json &doc, const char *key)
{
    const Json *v = doc.find(key);
    return v ? v->asString() : std::string();
}

/**
 * Reads the number at `key` into `out` (`fallback` when absent). False,
 * with `err` naming `file`, the field, `want` and the value, unless the
 * member is a finite number that `ok` accepts.
 */
template <typename Ok>
bool
checkedField(const Json &doc, const char *key, double fallback,
             const char *want, Ok ok, double &out, std::string &err,
             const std::string &file = "farm.json")
{
    const Json *v = doc.find(key);
    out = v ? v->asDouble() : fallback;
    bool number = v && (v->type() == Json::Type::Int ||
                        v->type() == Json::Type::Double);
    if (!v || (number && std::isfinite(out) && ok(out)))
        return true;
    err = strfmt("%s: %s wants %s, got %s", file.c_str(), key, want,
                 v->dump().c_str());
    return false;
}

/** A whole-number rule over [lo, hi] for checkedField. */
auto
wholeIn(double lo, double hi)
{
    return [lo, hi](double v) {
        return v >= lo && v <= hi && v == std::floor(v);
    };
}

/** A rule `v >= lo` for checkedField. */
auto
atLeast(double lo)
{
    return [lo](double v) { return v >= lo; };
}

/**
 * The attempt number at `key` of the per-cell record `file` (a fail
 * record's `attempts`, a lease's `attempt`), held to the range init
 * allows for max_attempts. Anything else is fatal, naming the file, the
 * field and the value: a cast would wrap or overflow.
 */
unsigned
recordAttempt(const Json &doc, const char *key, double fallback,
              const std::string &file)
{
    double v = 0;
    std::string err;
    if (!checkedField(doc, key, fallback, "a whole number in [1, 100]",
                      wholeIn(1, 100), v, err, file))
        fatal("%s", err.c_str());
    return static_cast<unsigned>(v);
}

} // namespace

Json
FarmSpec::toJson() const
{
    Json doc = Json::object();
    doc["format"] = 1;
    doc["experiment"] = experiment;
    doc["scale"] = scale;
    doc["channels"] = channels;
    doc["attack_filter"] = attackFilter;
    doc["fingerprint"] = fingerprint;
    doc["cell_total"] = cellTotal;
    Json pol = Json::object();
    pol["max_attempts"] = policy.maxAttempts;
    pol["cell_budget_s"] = policy.cellBudgetS;
    pol["stale_after_s"] = policy.staleAfterS;
    pol["backoff_base_s"] = policy.backoffBaseS;
    pol["backoff_cap_s"] = policy.backoffCapS;
    pol["verify_every"] = policy.verifyEvery;
    pol["watchdog_slice_s"] = policy.watchdogSliceS;
    doc["policy"] = std::move(pol);
    return doc;
}

bool
FarmSpec::fromJson(const Json &doc, FarmSpec &out, std::string &err)
{
    const Json *fmt = doc.find("format");
    if (!fmt || fmt->asInt() != 1) {
        err = "farm.json: missing or unsupported format version";
        return false;
    }
    out.experiment = strField(doc, "experiment");
    out.attackFilter = strField(doc, "attack_filter");
    out.fingerprint = strField(doc, "fingerprint");
    // Every number must lie where bh_farm init's flags put it: an edited
    // or damaged farm.json fails here, naming the field, rather than in
    // a cast out of range or as a grid that no longer matches.
    const Json no_policy = Json::object();
    const Json *pol = doc.find("policy");
    if (!pol)
        pol = &no_policy;
    FarmPolicy &p = out.policy;
    double channels = 0, cell_total = 0, max_attempts = 0, verify = 0;
    auto pow2 = [](double v) {
        return wholeIn(1, 64)(v) && isPow2(static_cast<unsigned>(v));
    };
    if (!checkedField(doc, "scale", 1.0, "a finite number >= 0.1",
                      atLeast(0.1), out.scale, err) ||
        !checkedField(doc, "channels", 1, "a power of two in [1, 64]",
                      pow2, channels, err) ||
        !checkedField(doc, "cell_total", 0, "a whole number in [1, 2^53]",
                      wholeIn(1, 0x1p53), cell_total, err) ||
        !checkedField(*pol, "max_attempts", 3,
                      "a whole number in [1, 100]", wholeIn(1, 100),
                      max_attempts, err) ||
        !checkedField(*pol, "verify_every", 0,
                      "a whole number in [0, 4294967295]",
                      wholeIn(0, UINT_MAX), verify, err) ||
        !checkedField(*pol, "cell_budget_s", 600.0, "a finite number >= 0",
                      atLeast(0), p.cellBudgetS, err) ||
        !checkedField(*pol, "stale_after_s", 60.0, "a finite number >= 0",
                      atLeast(0), p.staleAfterS, err) ||
        !checkedField(*pol, "backoff_base_s", 0.5, "a finite number >= 0",
                      atLeast(0), p.backoffBaseS, err) ||
        !checkedField(*pol, "backoff_cap_s", 30.0, "a finite number >= 0",
                      atLeast(0), p.backoffCapS, err) ||
        !checkedField(*pol, "watchdog_slice_s", 1.0, "a finite number > 0",
                      [](double v) { return v > 0; }, p.watchdogSliceS,
                      err))
        return false;
    out.channels = static_cast<unsigned>(channels);
    out.cellTotal = static_cast<std::uint64_t>(cell_total);
    p.maxAttempts = static_cast<unsigned>(max_attempts);
    p.verifyEvery = static_cast<unsigned>(verify);
    if (out.experiment.empty() || out.fingerprint.empty() ||
        out.cellTotal == 0) {
        err = "farm.json: experiment, fingerprint, and a non-empty cell "
              "grid are required";
        return false;
    }
    return true;
}

std::string
FarmPaths::leaseFile(std::uint64_t cell, bool verify) const
{
    return leaseDir() + "/" + (verify ? "v" : "") + cellName(cell);
}

std::string
FarmPaths::doneFile(std::uint64_t cell) const
{
    return doneDir() + "/" + cellName(cell);
}

std::string
FarmPaths::verifyFile(std::uint64_t cell) const
{
    return verifyDir() + "/" + cellName(cell);
}

std::string
FarmPaths::failFile(std::uint64_t cell) const
{
    return failDir() + "/" + cellName(cell);
}

std::string
FarmPaths::poisonFile(std::uint64_t cell) const
{
    return poisonDir() + "/" + cellName(cell);
}

std::string
FarmPaths::heartbeatFile(const std::string &worker) const
{
    return workerDir() + "/" + worker + ".json";
}

bool
Farm::init(const std::string &dir, const FarmSpec &spec, FarmClock &clock,
           std::string &err)
{
    FarmPaths paths(dir);
    std::error_code ec;
    for (const std::string &d :
         {paths.root, paths.leaseDir(), paths.doneDir(), paths.verifyDir(),
          paths.failDir(), paths.poisonDir(), paths.workerDir(),
          paths.faultDir()}) {
        fs::create_directories(d, ec);
        if (ec) {
            err = d + ": " + ec.message();
            return false;
        }
    }

    Json existing;
    if (loadJsonFile(paths.specFile(), existing)) {
        // Re-init over a live farm is only a no-op for the same grid;
        // anything else would silently mix incompatible cells.
        FarmSpec prior;
        std::string perr;
        if (!FarmSpec::fromJson(existing, prior, perr) ||
            prior.fingerprint != spec.fingerprint ||
            prior.experiment != spec.experiment) {
            err = dir + " already holds a different farm (experiment " +
                  (perr.empty() ? prior.experiment + ", fingerprint " +
                                      prior.fingerprint
                                : "unreadable: " + perr) +
                  "); use a fresh directory";
            return false;
        }
        return true;
    }

    if (!atomicWriteFile(paths.specFile(), spec.toJson().dump(2) + "\n",
                         err))
        return false;
    JournalEvent ev;
    ev.unixTime = clock.nowUnix();
    ev.event = "init";
    ev.worker = "init";
    ev.detail = spec.experiment + " " +
        std::to_string(spec.cellTotal) + " cells";
    journalAppend(paths.journalFile(), ev);
    return true;
}

bool
Farm::open(const std::string &dir, FarmClock &clock, Farm &out,
           std::string &err)
{
    FarmPaths paths(dir);
    Json doc;
    if (!loadJsonFile(paths.specFile(), doc)) {
        err = paths.specFile() + ": not a farm directory (missing or "
              "unreadable farm.json)";
        return false;
    }
    if (!FarmSpec::fromJson(doc, out.spec_, err))
        return false;
    out.paths_ = paths;
    out.clock_ = &clock;
    // A restarted coordinator may open a farm whose subdirectories were
    // partially created; recreate them so every later claim just works.
    std::error_code ec;
    for (const std::string &d :
         {paths.leaseDir(), paths.doneDir(), paths.verifyDir(),
          paths.failDir(), paths.poisonDir(), paths.workerDir(),
          paths.faultDir()})
        fs::create_directories(d, ec);
    return true;
}

bool
Farm::verifySelected(std::uint64_t cell) const
{
    if (spec_.policy.verifyEvery == 0)
        return false;
    std::uint64_t h = fnv1a64(spec_.fingerprint + ":" +
                              std::to_string(cell));
    return h % spec_.policy.verifyEvery == 0;
}

void
Farm::heartbeat(const std::string &worker)
{
    Json doc = Json::object();
    doc["worker"] = worker;
    doc["t"] = clock_->nowUnix();
    std::string err;
    if (!atomicWriteFile(paths_.heartbeatFile(worker), doc.dump(), err))
        warn("farm heartbeat failed: %s", err.c_str());
}

void
Farm::journal(const std::string &event, std::uint64_t cell,
              const std::string &worker, unsigned attempt,
              const std::string &detail)
{
    JournalEvent ev;
    ev.unixTime = clock_->nowUnix();
    ev.event = event;
    ev.cell = cell;
    ev.worker = worker;
    ev.attempt = attempt;
    ev.detail = detail;
    journalAppend(paths_.journalFile(), ev);
}

bool
Farm::leaseStale(const LeaseInfo &lease, double now) const
{
    const FarmPolicy &pol = spec_.policy;
    // Dead worker: its heartbeat file stopped advancing (or never
    // appeared — a worker beats once before claiming anything).
    Json hb;
    double hb_t = lease.claimUnix;
    if (loadJsonFile(paths_.heartbeatFile(lease.worker), hb))
        hb_t = std::max(hb_t, numField(hb, "t"));
    if (now - hb_t > pol.staleAfterS)
        return true;
    // Abandoned or wedged lease of a live worker: the watchdog should
    // have failed the cell by cellBudgetS; give it staleAfterS of grace.
    if (pol.cellBudgetS > 0.0 &&
        now - lease.claimUnix > pol.cellBudgetS + pol.staleAfterS)
        return true;
    return false;
}

void
Farm::stealLease(const std::string &worker, const LeaseInfo &lease,
                 bool verify)
{
    // rename() is the steal arbiter: of N workers that all decide this
    // lease is stale, exactly one wins the rename and records the
    // failure; the rest see ENOENT and move on.
    std::string from = paths_.leaseFile(lease.cell, verify);
    std::string to = from + ".stolen." + worker;
    if (::rename(from.c_str(), to.c_str()) != 0)
        return;
    ::remove(to.c_str());
    journal("steal", lease.cell, worker, lease.attempt,
            strfmt("stale %slease of worker %s", verify ? "verify-" : "",
                   lease.worker.c_str()));
    recordFailure(worker, lease.cell,
                  strfmt("stale %slease (worker %s, attempt %u)",
                         verify ? "verify-" : "", lease.worker.c_str(),
                         lease.attempt));
}

void
Farm::recordFailure(const std::string &worker, std::uint64_t cell,
                    const std::string &reason)
{
    const FarmPolicy &pol = spec_.policy;
    FailInfo info;
    info.cell = cell;
    Json prior;
    if (loadJsonFile(paths_.failFile(cell), prior)) {
        info.attempts = recordAttempt(prior, "attempts", 0,
                                      paths_.failFile(cell));
        const Json *reasons = prior.find("reasons");
        if (reasons && reasons->type() == Json::Type::Array)
            for (std::size_t i = 0; i < reasons->size(); ++i)
                info.reasons.push_back(reasons->at(i).asString());
    }
    ++info.attempts;
    info.lastFailUnix = clock_->nowUnix();
    double backoff = std::min(
        pol.backoffBaseS * std::pow(2.0, static_cast<double>(
                                             info.attempts - 1)),
        pol.backoffCapS);
    info.nextRetryUnix = info.lastFailUnix + backoff;
    info.reasons.push_back(reason);

    Json doc = Json::object();
    doc["cell"] = cell;
    doc["attempts"] = info.attempts;
    doc["last_fail_unix"] = info.lastFailUnix;
    doc["next_retry_unix"] = info.nextRetryUnix;
    Json reasons = Json::array();
    for (const std::string &r : info.reasons)
        reasons.push(r);
    doc["reasons"] = std::move(reasons);
    std::string err;
    if (!atomicWriteFile(paths_.failFile(cell), doc.dump(2) + "\n", err))
        warn("farm fail record: %s", err.c_str());
    journal("fail", cell, worker, info.attempts, reason);

    if (info.attempts >= pol.maxAttempts) {
        // Poison instead of retrying forever. The record keeps the
        // whole reason history so `bh_farm status` can show why.
        doc["poisoned_unix"] = clock_->nowUnix();
        if (!atomicWriteFile(paths_.poisonFile(cell), doc.dump(2) + "\n",
                             err))
            warn("farm poison record: %s", err.c_str());
        journal("poison", cell, worker, info.attempts,
                strfmt("%u failed attempts", info.attempts));
    }
}

std::map<std::uint64_t, Farm::CellView>
Farm::scan(const std::string &worker)
{
    std::map<std::uint64_t, CellView> cells;
    double now = clock_->nowUnix();

    auto listDir = [](const std::string &dir) {
        std::vector<std::string> names;
        std::error_code ec;
        for (fs::directory_iterator it(dir, ec), end; it != end && !ec;
             it.increment(ec)) {
            std::error_code type_ec;
            if (it->is_regular_file(type_ec) && !type_ec)
                names.push_back(it->path().filename().string());
        }
        std::sort(names.begin(), names.end());
        return names;
    };

    // Committed results: validate record + digest; anything torn or
    // mangled is quarantined to *.corrupt and its cell re-opened. Only
    // the worker whose rename wins records the failure, so concurrent
    // scanners cannot double-count an attempt.
    for (const std::string &name : listDir(paths_.doneDir())) {
        std::uint64_t cell = 0;
        if (!cellOfName(name, "cell_", cell) || cell >= spec_.cellTotal)
            continue;
        std::string path = paths_.doneDir() + "/" + name;
        Json rec;
        std::string digest;
        bool valid = loadJsonFile(path, rec);
        if (valid) {
            const Json *payload = rec.find("payload");
            digest = strField(rec, "digest");
            valid = payload && !payload->isNull() && !digest.empty() &&
                cellDigest(*payload) == digest;
        }
        if (!valid) {
            std::string moved = quarantineCorrupt(path);
            if (!moved.empty()) {
                warn("farm: corrupt result for cell %llu quarantined "
                     "to %s",
                     static_cast<unsigned long long>(cell), moved.c_str());
                journal("corrupt", cell, worker, 0, moved);
                recordFailure(worker, cell, "corrupt committed result");
            }
            continue;
        }
        CellView &view = cells[cell];
        view.done = true;
        view.doneDigest = digest;
    }

    for (const std::string &name : listDir(paths_.verifyDir())) {
        std::uint64_t cell = 0;
        if (cellOfName(name, "cell_", cell))
            cells[cell].verified = true;
    }

    for (const std::string &name : listDir(paths_.poisonDir())) {
        std::uint64_t cell = 0;
        if (cellOfName(name, "cell_", cell))
            cells[cell].poisoned = true;
    }

    for (const std::string &name : listDir(paths_.failDir())) {
        std::uint64_t cell = 0;
        if (!cellOfName(name, "cell_", cell))
            continue;
        Json doc;
        std::string path = paths_.failDir() + "/" + name;
        if (!loadJsonFile(path, doc))
            continue;   // torn fail record: claimable immediately
        CellView &view = cells[cell];
        view.hasFail = true;
        view.fail.cell = cell;
        view.fail.attempts = recordAttempt(doc, "attempts", 0, path);
        view.fail.lastFailUnix = numField(doc, "last_fail_unix");
        view.fail.nextRetryUnix = numField(doc, "next_retry_unix");
    }

    for (const std::string &name : listDir(paths_.leaseDir())) {
        bool verify = name.rfind("vcell_", 0) == 0;
        std::uint64_t cell = 0;
        if (!cellOfName(name, verify ? "vcell_" : "cell_", cell))
            continue;   // .stolen.* remnants and temp files
        Json doc;
        LeaseInfo lease;
        lease.cell = cell;
        lease.verify = verify;
        std::string path = paths_.leaseDir() + "/" + name;
        if (loadJsonFile(path, doc)) {
            lease.worker = strField(doc, "worker");
            lease.attempt = recordAttempt(doc, "attempt", 1, path);
            lease.claimUnix = numField(doc, "claim_unix", now);
        } else {
            // Unreadable lease (should not happen: claims are created
            // with content in place). Treat as freshly claimed by an
            // unknown worker; the wall-clock backstop will reap it.
            lease.worker = "?";
            lease.claimUnix = now;
        }
        CellView &view = cells[cell];
        if (verify) {
            view.hasVerifyLease = true;
            view.verifyLease = lease;
        } else {
            view.hasLease = true;
            view.lease = lease;
        }
    }

    return cells;
}

Farm::Pick
Farm::pickWork(const std::string &worker, const FaultPlan &faults,
               Claim &claim, double *wait_hint_s)
{
    auto cells = scan(worker);
    double now = clock_->nowUnix();

    // Double-claim fault: run the cell as if our exclusive claim
    // spuriously succeeded alongside the legitimate one — no lease
    // file, straight to execution. Fires once per (dup, cell).
    for (const FaultPlan::Fault &f : faults.faults) {
        if (f.kind != FaultKind::kDoubleClaim)
            continue;
        const CellView &view = cells[f.cell];
        if (view.poisoned)
            continue;
        if (!consumeFault(paths_.faultDir(), f.kind, f.cell))
            continue;
        claim = Claim();
        claim.cell = f.cell;
        claim.attempt = view.hasFail ? view.fail.attempts + 1 : 1;
        claim.ghost = true;
        journal("fault-dup", f.cell, worker, claim.attempt,
                "double-claim race injected");
        return Pick::kClaimed;
    }

    bool any_active = false;
    bool any_backoff = false;
    bool any_poisoned = false;
    bool all_complete = true;
    double hint = 60.0;

    for (std::uint64_t cell = 0; cell < spec_.cellTotal; ++cell) {
        const CellView &view = cells[cell];

        if (view.poisoned) {
            any_poisoned = true;
            all_complete = false;
            continue;
        }

        const bool needs_verify =
            verifySelected(cell) && !view.verified;

        if (view.done && !needs_verify)
            continue;   // fully settled
        all_complete = false;

        // Backoff after a recorded failure applies to both the rerun
        // and the verify re-execution.
        if (view.hasFail && now < view.fail.nextRetryUnix) {
            any_backoff = true;
            hint = std::min(hint, view.fail.nextRetryUnix - now);
            continue;
        }

        if (view.done) {
            // Needs its digest-agreement run.
            if (view.hasVerifyLease) {
                if (leaseStale(view.verifyLease, now))
                    stealLease(worker, view.verifyLease, true);
                else
                    any_active = true;
                continue;
            }
        } else {
            if (view.hasLease) {
                if (leaseStale(view.lease, now))
                    stealLease(worker, view.lease, false);
                else
                    any_active = true;
                continue;
            }
        }

        // Claimable: take the exclusive lease.
        Claim attempt_claim;
        attempt_claim.cell = cell;
        attempt_claim.attempt =
            view.hasFail ? view.fail.attempts + 1 : 1;
        attempt_claim.verify = view.done;

        Json lease = Json::object();
        lease["cell"] = cell;
        lease["worker"] = worker;
        lease["attempt"] = attempt_claim.attempt;
        lease["claim_unix"] = now;
        lease["verify"] = attempt_claim.verify;
        std::string err;
        if (!createExclusive(
                paths_.leaseFile(cell, attempt_claim.verify),
                lease.dump(), err)) {
            if (!err.empty())
                warn("farm claim: %s", err.c_str());
            any_active = true;  // lost the race: someone else has it
            continue;
        }

        // Stale-lease fault: claim, then silently walk away. The lease
        // sits there until the wall-clock backstop reaps it.
        if (faults.armed(FaultKind::kStaleLease, cell) &&
            consumeFault(paths_.faultDir(), FaultKind::kStaleLease,
                         cell)) {
            journal("fault-stale", cell, worker, attempt_claim.attempt,
                    "lease abandoned without release");
            any_active = true;
            continue;
        }

        journal(attempt_claim.verify ? "claim-verify" : "claim", cell,
                worker, attempt_claim.attempt);
        claim = attempt_claim;
        return Pick::kClaimed;
    }

    if (all_complete)
        return Pick::kComplete;
    if (!any_active && !any_backoff && any_poisoned)
        return Pick::kStuck;
    if (wait_hint_s)
        *wait_hint_s = any_backoff ? std::max(0.05, hint) : 1.0;
    return Pick::kWait;
}

bool
Farm::runWithWatchdog(const std::string &worker,
                      const std::function<Json(std::uint64_t)> &runner,
                      std::uint64_t cell, Json &payload,
                      std::string &detail)
{
    const double budget = spec_.policy.cellBudgetS;
    const double slice = std::max(1e-3, spec_.policy.watchdogSliceS);

    // Heap-held shared state: when the watchdog fires, this frame
    // returns while the runner thread is still blocked inside fn() —
    // the stray thread must keep valid state to land its result in.
    struct Shared
    {
        std::mutex m;
        std::condition_variable cv;
        bool finished = false;
        Json result;
        std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();

    std::thread work([shared, runner, cell]() {
        Json local;
        std::exception_ptr eptr;
        try {
            local = runner(cell);
        } catch (...) {
            eptr = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(shared->m);
        shared->result = std::move(local);
        shared->error = eptr;
        shared->finished = true;
        shared->cv.notify_all();
    });

    double start = clock_->nowUnix();
    std::unique_lock<std::mutex> lock(shared->m);
    while (!shared->finished) {
        shared->cv.wait_for(lock, std::chrono::duration<double>(slice));
        if (shared->finished)
            break;
        // The waiting thread doubles as the heartbeat: a long cell
        // keeps the lease alive slice by slice.
        lock.unlock();
        heartbeat(worker);
        lock.lock();
        double elapsed = clock_->nowUnix() - start;
        if (budget > 0.0 && elapsed > budget && !shared->finished) {
            // Watchdog: the runner thread is wedged (or just over
            // budget). Record the failure and hand the thread back to
            // the caller — the CLI _Exits, tests unblock and join.
            lock.unlock();
            detail = strfmt("watchdog: cell exceeded its %.3g s "
                            "wall-clock budget", budget);
            stray_ = std::move(work);
            return false;
        }
    }
    lock.unlock();
    work.join();
    if (shared->error) {
        try {
            std::rethrow_exception(shared->error);
        } catch (const std::exception &e) {
            detail = strfmt("runner: %s", e.what());
        } catch (...) {
            detail = "runner: unknown exception";
        }
        return false;
    }
    payload = std::move(shared->result);
    detail.clear();
    return true;
}

Farm::RunOutcome
Farm::runClaim(const std::string &worker, const Claim &claim,
               const std::function<Json(std::uint64_t)> &runner,
               const FaultPlan &faults, std::string &detail)
{
    detail.clear();
    Json payload;
    if (!runWithWatchdog(worker, runner, claim.cell, payload, detail)) {
        bool watchdog = stray_.joinable();
        recordFailure(worker, claim.cell, detail);
        if (!claim.ghost)
            ::remove(paths_.leaseFile(claim.cell, claim.verify).c_str());
        journal(watchdog ? "watchdog" : "runner-fail", claim.cell, worker,
                claim.attempt, detail);
        return watchdog ? RunOutcome::kWatchdog : RunOutcome::kFailed;
    }

    if (claim.verify)
        return verifyCell(worker, claim, payload, detail);

    // Kill fault: die between computing and committing, like a SIGKILL
    // at the worst instruction — no release, no journal, nothing.
    if (faults.armed(FaultKind::kKillMidCell, claim.cell) &&
        consumeFault(paths_.faultDir(), FaultKind::kKillMidCell,
                     claim.cell)) {
        detail = "kill fault fired; caller must exit without cleanup";
        return RunOutcome::kKilled;
    }

    return commitCell(worker, claim, payload, faults, detail);
}

Farm::RunOutcome
Farm::commitCell(const std::string &worker, const Claim &claim,
                 const Json &payload, const FaultPlan &faults,
                 std::string &detail)
{
    std::string digest = cellDigest(payload);
    std::string done_path = paths_.doneFile(claim.cell);

    // Another commit may already be in place (duplicate execution after
    // a steal, or an injected double claim): the digest-agreement
    // check. Matching digests mean the duplicate is harmless; a
    // mismatch flags the cell, quarantines the evidence, and re-runs.
    Json existing;
    if (loadJsonFile(done_path, existing)) {
        const Json *prior_payload = existing.find("payload");
        std::string prior_digest = strField(existing, "digest");
        if (prior_payload && !prior_digest.empty() &&
            cellDigest(*prior_payload) == prior_digest) {
            if (!claim.ghost)
                ::remove(
                    paths_.leaseFile(claim.cell, false).c_str());
            if (prior_digest == digest) {
                journal("dup-agree", claim.cell, worker, claim.attempt,
                        digest);
                return RunOutcome::kDupAgree;
            }
            std::string moved = quarantineCorrupt(done_path);
            detail = strfmt(
                "digest disagreement: committed %s vs recomputed %s%s%s",
                prior_digest.c_str(), digest.c_str(),
                moved.empty() ? "" : "; quarantined to ",
                moved.c_str());
            journal("dup-mismatch", claim.cell, worker, claim.attempt,
                    detail);
            recordFailure(worker, claim.cell, detail);
            return RunOutcome::kDupMismatch;
        }
        // Existing record is itself corrupt; fall through and let the
        // atomic rename replace it with a valid one.
    }

    Json record = Json::object();
    record["cell"] = claim.cell;
    record["attempt"] = claim.attempt;
    record["worker"] = worker;
    record["digest"] = digest;
    record["payload"] = payload;
    std::string bytes = record.dump(2) + "\n";

    std::string err;
    if (faults.armed(FaultKind::kTruncateWrite, claim.cell) &&
        consumeFault(paths_.faultDir(), FaultKind::kTruncateWrite,
                     claim.cell)) {
        // Torn write: the first half of the record lands without the
        // atomic-rename protocol, exactly what a crash mid-write inside
        // a naive writer would leave.
        if (!atomicWriteFile(done_path, bytes.substr(0, bytes.size() / 2),
                             err))
            warn("farm truncate fault: %s", err.c_str());
        journal("fault-truncate", claim.cell, worker, claim.attempt);
    } else if (faults.armed(FaultKind::kCorruptJson, claim.cell) &&
               consumeFault(paths_.faultDir(), FaultKind::kCorruptJson,
                            claim.cell)) {
        std::string mangled = bytes;
        for (std::size_t i = mangled.size() / 2;
             i < mangled.size() && i < mangled.size() / 2 + 16; ++i)
            mangled[i] = '#';
        if (!atomicWriteFile(done_path, mangled, err))
            warn("farm corrupt fault: %s", err.c_str());
        journal("fault-corrupt", claim.cell, worker, claim.attempt);
    } else {
        if (!atomicWriteFile(done_path, bytes, err)) {
            recordFailure(worker, claim.cell, "commit: " + err);
            if (!claim.ghost)
                ::remove(paths_.leaseFile(claim.cell, false).c_str());
            journal("commit-fail", claim.cell, worker, claim.attempt,
                    err);
            detail = err;
            return RunOutcome::kFailed;
        }
    }

    if (!claim.ghost)
        ::remove(paths_.leaseFile(claim.cell, false).c_str());
    journal("done", claim.cell, worker, claim.attempt, digest);
    return RunOutcome::kCommitted;
}

Farm::RunOutcome
Farm::verifyCell(const std::string &worker, const Claim &claim,
                 const Json &payload, std::string &detail)
{
    std::string digest = cellDigest(payload);
    std::string done_path = paths_.doneFile(claim.cell);
    std::string vlease = paths_.leaseFile(claim.cell, true);

    Json existing;
    if (!loadJsonFile(done_path, existing)) {
        // The committed result vanished (quarantined by another scan)
        // between claim and compare; the cell will be re-run anyway.
        ::remove(vlease.c_str());
        journal("verify-moot", claim.cell, worker, claim.attempt);
        return RunOutcome::kVerifyMoot;
    }
    std::string prior_digest = strField(existing, "digest");
    if (prior_digest == digest) {
        Json marker = Json::object();
        marker["cell"] = claim.cell;
        marker["digest"] = digest;
        marker["worker"] = worker;
        std::string err;
        if (!atomicWriteFile(paths_.verifyFile(claim.cell),
                             marker.dump() + "\n", err))
            warn("farm verify marker: %s", err.c_str());
        ::remove(vlease.c_str());
        journal("verify-ok", claim.cell, worker, claim.attempt, digest);
        return RunOutcome::kVerifyOk;
    }

    // Double execution disagreed: the committed result cannot be
    // trusted. Quarantine it, flag the cell, and let it re-run from
    // scratch (both the run and its verification).
    std::string moved = quarantineCorrupt(done_path);
    detail = strfmt("verify disagreement: committed %s vs re-executed "
                    "%s%s%s",
                    prior_digest.c_str(), digest.c_str(),
                    moved.empty() ? "" : "; quarantined to ",
                    moved.c_str());
    ::remove(paths_.verifyFile(claim.cell).c_str());
    ::remove(vlease.c_str());
    journal("verify-mismatch", claim.cell, worker, claim.attempt, detail);
    recordFailure(worker, claim.cell, detail);
    return RunOutcome::kVerifyMismatch;
}

FarmStatus
Farm::status(const std::string &worker)
{
    auto cells = scan(worker);
    double now = clock_->nowUnix();

    FarmStatus st;
    st.cellTotal = spec_.cellTotal;
    st.complete = true;
    for (std::uint64_t cell = 0; cell < spec_.cellTotal; ++cell) {
        const CellView &view = cells[cell];
        bool needs_verify = verifySelected(cell);
        if (needs_verify)
            ++st.verifyWanted;
        if (view.poisoned) {
            st.poisoned.push_back(cell);
            st.complete = false;
            continue;
        }
        if (view.done)
            ++st.doneCells;
        if (view.done && view.verified)
            ++st.verifiedCells;
        if (view.done && (!needs_verify || view.verified))
            continue;
        st.complete = false;
        if (view.hasLease || view.hasVerifyLease) {
            const LeaseInfo &lease =
                view.hasLease ? view.lease : view.verifyLease;
            if (leaseStale(lease, now))
                ++st.staleLeases;
            else
                ++st.activeLeases;
        } else if (view.hasFail && now < view.fail.nextRetryUnix) {
            ++st.backoffCells;
        } else {
            ++st.pendingCells;
        }
    }
    for (const JournalEvent &ev : journalRead(paths_.journalFile()))
        if (ev.event == "corrupt")
            ++st.journalCorruptEvents;
    return st;
}

bool
Farm::collectCells(Json &cells, std::string &err)
{
    // Revalidate the commit digests before the status scan below, which
    // would quarantine a mismatching record and re-open its cell: an
    // edit after commit fails the collect naming the file instead.
    cells = Json::object();
    for (std::uint64_t cell = 0; cell < spec_.cellTotal; ++cell) {
        Json rec;
        if (!loadJsonFile(paths_.doneFile(cell), rec))
            continue;    // not committed: the status check reports it
        const Json *payload = rec.find("payload");
        std::string digest = strField(rec, "digest");
        if (!payload || digest.empty() ||
            cellDigest(*payload) != digest) {
            err = paths_.doneFile(cell) + ": payload does not match the "
                  "digest recorded at commit";
            return false;
        }
        cells[std::to_string(cell)] = *payload;
    }

    FarmStatus st = status("collect");
    if (!st.complete) {
        std::string poisoned;
        for (std::uint64_t cell : st.poisoned)
            poisoned += (poisoned.empty() ? "" : " ") +
                std::to_string(cell);
        err = strfmt("farm incomplete: %llu/%llu cells done",
                     static_cast<unsigned long long>(st.doneCells),
                     static_cast<unsigned long long>(st.cellTotal));
        if (!poisoned.empty())
            err += "; poisoned: " + poisoned;
        return false;
    }
    if (cells.size() != spec_.cellTotal) {
        err = "farm changed during collect (a worker is still "
              "committing); collect again";
        return false;
    }
    return true;
}

} // namespace bh

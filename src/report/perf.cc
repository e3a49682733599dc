#include "report/perf.hh"

#include <cmath>
#include <set>

#include "common/log.hh"

namespace bh
{

namespace
{

double
numField(const Json &obj, const char *key, double fallback = 0.0)
{
    const Json *v = obj.find(key);
    return v ? v->asDouble() : fallback;
}

/**
 * Did the measured experiment `m` run exactly the cells `want` names:
 * its whole grid for "all", else the listed indices?
 */
bool
ranCells(const Json *want, const Json &m)
{
    const Json *cells = m.find("cells");
    if (!want || !cells)
        return false;
    std::set<std::string> wanted, ran;
    for (const auto &kv : cells->objectItems())
        ran.insert(kv.first);
    if (want->type() != Json::Type::Array)
        return want->asString() == "all" &&
            static_cast<double>(ran.size()) == numField(m, "cell_total");
    for (std::size_t i = 0; i < want->size(); ++i)
        wanted.insert(std::to_string(want->at(i).asInt()));
    return wanted == ran;
}

/**
 * Compare each field of `golden` (a `work` object) exactly with its sum
 * over the `work` objects of the measured `cells`, appending a verdict
 * line per mismatch, or one "ok" line. Returns whether all are equal.
 */
bool
workEqual(const char *exp, const Json &golden, const Json &cells,
          std::vector<std::string> &lines)
{
    std::size_t before = lines.size();
    Json sum = Json::object();
    for (const auto &[cell, perf] : cells.objectItems()) {
        const Json *work = perf.find("work");
        if (!work) {
            lines.push_back(strfmt("%s: work FAIL (cell %s has no \"work\")",
                                   exp, cell.c_str()));
            continue;
        }
        for (const auto &[field, count] : work->objectItems()) {
            Json &total = sum[field];
            total = total.asDouble() + count.asDouble();
        }
    }
    for (const auto &[field, want] : golden.objectItems()) {
        const Json *got = sum.find(field);
        if (!got || got->asDouble() != want.asDouble())
            lines.push_back(strfmt(
                "%s: work FAIL (%s %s, golden %s)", exp, field.c_str(),
                got ? Json::formatDouble(got->asDouble()).c_str()
                    : "not measured",
                Json::formatDouble(want.asDouble()).c_str()));
    }
    if (lines.size() > before)
        return false;
    lines.push_back(strfmt("%s: work ok (%zu counts equal)", exp,
                           golden.objectItems().size()));
    return true;
}

} // namespace

PerfGateResult
perfGate(const Json &golden, const Json &measured, double minRatioOverride)
{
    PerfGateResult res;
    res.pass = true;

    const Json *entries = golden.find("entries");
    if (!entries || entries->type() != Json::Type::Array ||
        entries->size() == 0) {
        res.pass = false;
        res.lines.push_back("golden has no \"entries\" array");
        return res;
    }
    const Json *experiments = measured.find("experiments");
    if (!experiments || experiments->type() != Json::Type::Object) {
        res.pass = false;
        res.lines.push_back("measurement has no \"experiments\" object");
        return res;
    }
    double measured_scale = numField(measured, "scale", -1.0);
    double measured_channels = numField(measured, "channels", 1.0);

    std::size_t applied = 0;
    std::size_t work_due = 0, work_checked = 0;
    for (std::size_t i = 0; i < entries->size(); ++i) {
        const Json &e = entries->at(i);
        const Json *name = e.find("experiment");
        if (!name) {
            res.pass = false;
            res.lines.push_back(strfmt("entry %zu: no \"experiment\"", i));
            continue;
        }
        double want_scale = numField(e, "scale", 1.0);
        if (std::fabs(want_scale - measured_scale) > 1e-9) {
            res.lines.push_back(strfmt(
                "%s: skipped (golden scale %s, measured %s)",
                name->asString().c_str(),
                Json::formatDouble(want_scale).c_str(),
                Json::formatDouble(measured_scale).c_str()));
            continue;
        }
        ++applied;

        const Json *m = experiments->find(name->asString());
        if (!m) {
            res.pass = false;
            res.lines.push_back(strfmt("%s: FAIL (not in measurement)",
                                       name->asString().c_str()));
            continue;
        }
        double wall_s = numField(*m, "wall_s");
        double sim_cycles = numField(*m, "sim_cycles");
        double cps = wall_s > 0.0 ? sim_cycles / wall_s : 0.0;
        double ref_cps = numField(e, "ref_cps");
        double min_ratio = minRatioOverride > 0.0
            ? minRatioOverride : numField(e, "min_ratio", 0.2);
        double floor = ref_cps * min_ratio;
        bool ok = cps >= floor;
        if (!ok)
            res.pass = false;
        res.lines.push_back(strfmt(
            "%s: %s (%.3g sim cycles/s, floor %.3g = ref %.3g x %.2g)",
            name->asString().c_str(), ok ? "ok" : "FAIL",
            cps, floor, ref_cps, min_ratio));

        const Json *work = e.find("work");
        if (!work)
            continue;
        ++work_due;
        double ran_channels = numField(*m, "channels", measured_channels);
        const Json *cells = e.find("cells");
        double want_channels = numField(e, "channels", 1.0);
        if (want_channels != ran_channels || !ranCells(cells, *m)) {
            res.lines.push_back(strfmt(
                "%s: work skipped (golden cells %s at %s channel(s); "
                "measured %s of %s cells at %s)",
                name->asString().c_str(), cells ? cells->dump().c_str() : "",
                Json::formatDouble(want_channels).c_str(),
                Json::formatDouble(numField(*m, "cells_run")).c_str(),
                Json::formatDouble(numField(*m, "cell_total")).c_str(),
                Json::formatDouble(ran_channels).c_str()));
            continue;
        }
        ++work_checked;
        if (!workEqual(name->asString().c_str(), *work, *m->find("cells"),
                       res.lines))
            res.pass = false;
    }
    if (applied == 0) {
        // Every entry skipped: refuse to pass vacuously.
        res.pass = false;
        res.lines.push_back(strfmt(
            "no golden entry applies at measured scale %s",
            Json::formatDouble(measured_scale).c_str()));
    } else if (work_due > 0 && work_checked == 0) {
        // Work counts were due, and no measured run could be checked.
        res.pass = false;
        res.lines.push_back(
            "no golden work counts apply to the measured cells and channels");
    }
    return res;
}

} // namespace bh

/**
 * @file
 * Declarative SLO specs with multi-window burn-rate alerting.
 *
 * An SLO names a per-window telemetry field and a threshold: a rollup
 * window is *bad* when the field exceeds the threshold (e.g.
 * `p99_flip_latency < N cycles` is bad when the window's p99 goes
 * above N). Each SLO carries an error budget — the tolerated fraction
 * of bad windows — and the monitor tracks the *burn rate*: the
 * observed bad-window fraction divided by that budget, over both a
 * short and a long trailing span of windows.
 *
 * An alert fires only when BOTH burn rates reach the alerting
 * threshold: the long window keeps one-off blips from paging, the
 * short window makes the alert clear quickly once the fault stops.
 * This is the standard multi-window burn-rate construction from SRE
 * practice, scaled down to simulated windows.
 *
 * Everything is counting on integer window verdicts, so alert
 * sequences are exact-deterministic: the same telemetry stream raises
 * byte-identical alert logs on every platform and across repeat
 * runs.
 */

#ifndef PROTEAN_OBS_SLO_H
#define PROTEAN_OBS_SLO_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace protean {
namespace obs {

/** One declarative SLO: `field <= threshold` per window. */
struct SloSpec
{
    std::string name;  //!< e.g. "flip_latency_p99"
    std::string field; //!< telemetry window field to evaluate
    /** A window is bad when the field's value exceeds this. */
    double threshold = 0.0;
    /** Tolerated bad-window fraction (the error budget). */
    double budget = 0.05;
    /** Trailing spans, in windows. shortWindows <= longWindows. */
    uint32_t shortWindows = 2;
    uint32_t longWindows = 8;
    /** Fire when both spans' burn rates reach this multiple. */
    double burnThreshold = 1.0;
};

/** One alert episode (raised, possibly later cleared). */
struct SloAlert
{
    std::string slo;
    uint64_t raisedWindow = 0;  //!< window index at raise time
    uint64_t clearedWindow = 0; //!< UINT64_MAX while still firing
    double shortBurn = 0.0;     //!< burn rates at raise time
    double longBurn = 0.0;
};

/**
 * Evaluates SLO specs against a stream of closed rollup windows.
 * Feed each window's field values in order; alerts are rising-edge
 * episodes that clear when the short-window burn drops back under
 * the threshold.
 */
class SloMonitor
{
  public:
    void addSpec(SloSpec spec);

    const std::vector<SloSpec> &specs() const { return specs_; }

    /**
     * Evaluate one closed window. `fields` maps field name to the
     * window's value; an SLO whose field is absent treats the window
     * as good. Returns the names of alerts newly raised by this
     * window.
     */
    std::vector<std::string>
    observeWindow(uint64_t windowIndex,
                  const std::map<std::string, double> &fields);

    /** All alert episodes, in raise order. */
    const std::vector<SloAlert> &alerts() const { return alerts_; }

    /** Is this SLO's alert currently raised? */
    bool firing(const std::string &slo) const;

    /** Did this SLO ever raise an alert? */
    bool everFired(const std::string &slo) const;

    /** Total bad windows seen for an SLO (0 if unknown). */
    uint64_t badWindows(const std::string &slo) const;

    /** Specs and alert episodes as a JSON object with stable key
     *  order (byte-identical for identical streams). */
    std::string toJson() const;

  private:
    struct State
    {
        size_t spec;                  //!< index into specs_
        std::deque<uint8_t> history;  //!< 1 = bad, newest at back
        uint64_t badTotal = 0;
        bool firing = false;
        size_t activeAlert = 0;       //!< index into alerts_
    };

    /** Bad-window fraction over the trailing `span` windows,
     *  divided by the budget. */
    static double burnRate(const State &st, uint32_t span,
                           double budget);

    std::vector<SloSpec> specs_;
    std::vector<State> states_;
    std::vector<SloAlert> alerts_;
};

} // namespace obs
} // namespace protean

#endif // PROTEAN_OBS_SLO_H

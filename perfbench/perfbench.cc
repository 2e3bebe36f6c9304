/**
 * @file
 * perfbench: the measuring program behind perfbench/run.py.
 *
 * Runs one named workload through the library's public entry points and
 * prints one JSON object on stdout.  run.py builds this program, starts
 * it, checks the simulated digest, and prints the benchmark's result line;
 * the metric definitions live in its docstring.
 *
 *   perfbench --workload W --seed N --seconds S [--mode M] [--threads T]
 *             [--tiny] [--reps R] [--t0-ns NS] [--scratch DIR]
 *             [--spans FILE]
 *
 * Modes:
 *   run    untraced repetitions (obs off, no sinks) until S seconds pass
 *   trace  untraced repetitions for half of S, then one traced repetition
 *          (obs on, engine::KernelMetricsSink on every storage kernel, an
 *          epoch sink on fleets); per-layer figures plus the span log
 *   probe  set up the first simulation and stop at its first fired event;
 *          reports the host seconds since --t0-ns (the parent's
 *          CLOCK_MONOTONIC reading just before it started this process)
 *   burn   calibrated CPU burn on 1 and on all hardware threads; reports
 *          the host's effective parallelism
 *
 * Every repetition is timed from outside, by clock reads around calls
 * into public entry points, and recorded as spans (name, start, end,
 * parent, run id) kept in memory; --spans writes them out at exit.  A
 * fixed reference job runs before each repetition and its CPU time is
 * the unit of the headline throughput (see referenceCpuSeconds).
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/scenarios.h"
#include "engine/metrics_sink.h"
#include "engine/trace.h"
#include "fleet/fleet_sim.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "thermal/drive_thermal.h"
#include "trace/synth.h"
#include "util/log.h"
#include "util/random.h"

using namespace hddtherm;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by every thread of this process so far.
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample (exact, no binning).
double
exactQuantile(std::vector<double>& v, double q)
{
    if (v.empty())
        return 0.0;
    const auto rank = std::size_t(std::ceil(q * double(v.size())));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(k), v.end());
    return v[k];
}

std::string
fmt(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/// Flat JSON object writer (insertion order kept).
class Json
{
  public:
    Json& num(const std::string& key, double v)
    {
        return raw(key, std::isfinite(v) ? fmt(v) : "null");
    }
    Json& str(const std::string& key, const std::string& v)
    {
        return raw(key, jsonString(v));
    }
    Json& raw(const std::string& key, const std::string& v)
    {
        body_ += (body_.empty() ? "" : ", ") + jsonString(key) + ": " + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---------------------------------------------------------------------------
// Spans

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root.
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string run; ///< Run id: workload, seed, process, repetition.
};

class SpanLog
{
  public:
    void setRun(std::string run) { run_ = std::move(run); }

    std::uint64_t open(const std::string& name, std::uint64_t parent)
    {
        spans_.push_back({spans_.size() + 1, parent, name, monotonicNs(), 0,
                          run_});
        return spans_.back().id;
    }
    void close(std::uint64_t id) { spans_[id - 1].endNs = monotonicNs(); }

    /// Record an already-measured interval.
    void add(const std::string& name, std::uint64_t parent,
             std::int64_t start_ns, std::int64_t end_ns)
    {
        spans_.push_back(
            {spans_.size() + 1, parent, name, start_ns, end_ns, run_});
    }

    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        for (const auto& sp : spans_) {
            out << Json()
                       .str("run", sp.run)
                       .num("id", double(sp.id))
                       .num("parent", double(sp.parent))
                       .str("name", sp.name)
                       .num("start_ns", double(sp.startNs))
                       .num("end_ns", double(sp.endNs))
                       .text()
                << '\n';
        }
        return bool(out);
    }

  private:
    std::vector<Span> spans_;
    std::string run_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t parent)
        : log_(log), id_(log.open(name, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    std::uint64_t id() const { return id_; }

  private:
    SpanLog& log_;
    std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Arguments

struct Args
{
    std::string workload;
    std::string mode = "run";
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int threads = 2;
    bool tiny = false;
    int reps = 0; ///< > 0: exactly this many repetitions.
    std::int64_t t0Ns = -1;
    std::string scratch = ".bench_build/scratch";
    std::string spans;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--mode")
                a.mode = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--threads")
                a.threads = std::stoi(v);
            else if (flag == "--reps")
                a.reps = std::stoi(v);
            else if (flag == "--t0-ns")
                a.t0Ns = std::stoll(v);
            else if (flag == "--scratch")
                a.scratch = v;
            else if (flag == "--spans")
                a.spans = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload != "fig4_read" && a.workload != "fig4_raid5_write" &&
        a.workload != "fleet_throttled" && a.mode != "burn")
        usage("unknown workload '" + a.workload + "'");
    if (a.mode != "run" && a.mode != "trace" && a.mode != "probe" &&
        a.mode != "burn")
        usage("unknown mode '" + a.mode + "'");
    if (a.threads < 1 || a.seconds <= 0.0)
        usage("threads and seconds must be positive");
    return a;
}

/// Seed 0 keeps a committed constant; any other seed re-derives it.
std::uint64_t
reseed(std::uint64_t committed, std::uint64_t seed)
{
    return seed == 0 ? committed : util::deriveStreamSeed(committed, seed);
}

/// Thrown by FirstFireSink to stop a set-up probe at its first event.
struct FirstFire
{
    std::int64_t ns;
    double cpu;
};

class FirstFireSink : public engine::TraceSink
{
  public:
    void onEvent(const engine::TraceEvent& e) override
    {
        if (e.kind == engine::TraceKind::Fired)
            throw FirstFire{monotonicNs(), cpuSeconds()};
    }
};

// ---------------------------------------------------------------------------
// Figure 4 replays (§5.1): storage only, open loop, caches start empty.

const std::vector<std::string>&
fig4Names(const std::string& workload)
{
    static const std::vector<std::string> read = {"OLTP", "Search-Engine",
                                                  "TPC-H"};
    static const std::vector<std::string> raid5 = {"Openmail", "TPC-C"};
    return workload == "fig4_read" ? read : raid5;
}

std::vector<core::WorkloadScenario>
fig4Scenarios(const std::string& workload, std::uint64_t seed, bool tiny)
{
    const auto& names = fig4Names(workload);
    std::vector<core::WorkloadScenario> out;
    for (auto& s : core::figure4Scenarios(tiny ? 2000 : 60000)) {
        if (std::find(names.begin(), names.end(), s.name) == names.end())
            continue;
        s.workload.seed = reseed(s.workload.seed, seed);
        out.push_back(std::move(s));
    }
    return out;
}

/// One scenario at one spindle speed.
struct Replay
{
    std::string scenario;
    double rpm = 0.0;
    double paperMs = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::size_t inflight = 0;
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::vector<double> cdf;
    double overflow = 0.0;
    // Host time per layer, seconds.
    double genSec = 0.0;
    double runSec = 0.0;
    double totalSec = 0.0;
    // Public counters.
    std::uint64_t traceBytes = 0;
    std::uint64_t events = 0;
    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;
    std::uint64_t subRequests = 0;
    std::uint64_t seeks = 0;
    double utilizationSum = 0.0;
    double queueDepthSum = 0.0;
    int disks = 0;

    /// Simulated outcome only: what a host-side optimization must keep.
    std::string digestText() const
    {
        std::string d = scenario + "|" + fmt(rpm) + "|" +
                        std::to_string(completed) + "|" + fmt(meanMs) + "|" +
                        fmt(p50Ms) + "|" + fmt(p99Ms);
        for (const double c : cdf)
            d += "|" + fmt(c);
        return d + "|" + fmt(overflow);
    }
};

Replay
replay(const core::WorkloadScenario& s, std::size_t step, SpanLog& spans,
       engine::TraceSink* sink)
{
    Replay r;
    r.scenario = s.name;
    r.rpm = s.rpmSteps()[step];
    r.paperMs = s.paperAvgResponseMs[step];
    const auto t0 = Clock::now();
    const ScopedSpan top(spans, "sim.replay", 0);

    sim::SystemConfig cfg = s.system;
    cfg.disk.rpm = r.rpm;
    std::optional<sim::StorageSystem> array;
    {
        const ScopedSpan sp(spans, "sim.construct", top.id());
        array.emplace(cfg);
    }
    std::vector<sim::IoRequest> requests;
    {
        const ScopedSpan sp(spans, "trace.gen", top.id());
        const auto t = Clock::now();
        const trace::Trace tr =
            trace::SyntheticWorkload(s.workload).generate(
                array->logicalSectors());
        requests = tr.toRequests();
        r.genSec = secondsSince(t);
        r.traceBytes = tr.size() * sizeof(trace::TraceRecord) +
                       requests.size() * sizeof(sim::IoRequest);
    }
    r.submitted = requests.size();

    std::vector<double> latencies;
    latencies.reserve(requests.size());
    array->setCompletionCallback([&latencies](const sim::IoCompletion& c) {
        latencies.push_back(c.responseTimeMs());
    });
    array->events().setTraceSink(sink);
    sim::ResponseMetrics metrics;
    {
        const ScopedSpan sp(spans, "sim.run", top.id());
        const auto t = Clock::now();
        metrics = array->run(requests);
        r.runSec = secondsSince(t);
    }
    array->events().setTraceSink(nullptr);

    r.completed = metrics.count();
    r.inflight = array->inflight();
    r.meanMs = metrics.meanMs();
    r.cdf = metrics.histogram().cdf();
    r.overflow = metrics.histogram().overflowFraction();
    r.p50Ms = exactQuantile(latencies, 0.50);
    r.p99Ms = exactQuantile(latencies, 0.99);

    const double now = array->events().now();
    r.events = array->events().fired();
    r.disks = array->diskCount();
    for (int i = 0; i < r.disks; ++i) {
        const auto& disk = array->disk(i);
        r.readHits += disk.cacheStats().readHits;
        r.reads += disk.cacheStats().readHits + disk.cacheStats().readMisses;
        r.subRequests += disk.activity().completions;
        r.seeks += disk.activity().seeks;
        r.utilizationSum += disk.utilization(now);
        r.queueDepthSum += disk.avgQueueDepth(now);
    }
    r.totalSec = secondsSince(t0);
    return r;
}

// ---------------------------------------------------------------------------
// The throttled fleet: bench_fleet_scale's 64-bay configuration.

fleet::FleetConfig
fleetConfig(std::uint64_t seed, bool tiny)
{
    fleet::FleetConfig cfg;
    cfg.racks = 2;
    cfg.rack.chassisCount = 4;
    cfg.chassis.bays = 8;
    cfg.rack.inletC = 27.0;
    cfg.bay.system.disk.geometry.diameterInches = 2.6;
    cfg.bay.system.disk.geometry.platters = 1;
    cfg.bay.system.disk.tech = {500e3, 60e3};
    cfg.bay.system.disk.rpm = 24534.0;
    cfg.bay.policy = dtm::DtmPolicy::GateRequests;
    cfg.workload.requests = tiny ? 500 : 20000;
    cfg.workload.arrivalRatePerSec = 100.0;
    cfg.epochSec = 0.5;
    cfg.maxSimulatedSec = 3600.0;
    cfg.seed = reseed(42, seed);
    return cfg;
}

snap::CheckpointPolicy
checkpointPolicy(const std::string& dir, bool tiny)
{
    snap::CheckpointPolicy policy;
    policy.directory = dir;
    policy.everyEpochs = tiny ? 5 : 100;
    policy.delta = true;
    policy.compress = true;
    return policy;
}

/// Records every fleet-epoch fire with its host time.
class EpochSink : public engine::TraceSink
{
  public:
    struct Fire
    {
        std::int64_t ns;
        double when;
    };
    void onEvent(const engine::TraceEvent& e) override
    {
        ++events_;
        if (e.kind == engine::TraceKind::Fired)
            fires_.push_back({monotonicNs(), e.when});
    }
    const std::vector<Fire>& fires() const { return fires_; }
    std::uint64_t events() const { return events_; }

  private:
    std::vector<Fire> fires_;
    std::uint64_t events_ = 0;
};

struct FleetRep
{
    fleet::FleetResult result;
    std::uint64_t submitted = 0;
    std::vector<double> fullBytes;  ///< Anchor checkpoint sizes.
    std::vector<double> deltaBytes; ///< Delta checkpoint sizes.

    std::string digestText() const
    {
        const auto& m = result.metrics;
        std::string d = std::to_string(m.count()) + "|" + fmt(m.meanMs());
        for (const double c : m.histogram().cdf())
            d += "|" + fmt(c);
        d += "|" + fmt(m.histogram().overflowFraction());
        d += "|" + fmt(result.maxDriveTempC) + "|" +
             std::to_string(result.gateEvents) + "|" + fmt(result.gatedSec) +
             "|" + std::to_string(result.speedChanges) + "|" +
             fmt(result.simulatedSec) + "|" + std::to_string(result.epochs);
        for (const auto& c : result.chassis)
            d += "|" + fmt(c.peakDriveTempC) + "/" + fmt(c.peakDriveAmbientC);
        return d;
    }
};

/**
 * The fleet run has no published reference.  Its bay drive does: paper
 * Table 3 puts the 2.6" one-platter drive at 24,534 RPM, VCM on, at
 * 48.26 C.  This is the error of the thermal model the bays run on.
 */
double
fleetDrivePaperErrPct()
{
    constexpr double kPaperTable3C = 48.26;
    const auto bay = fleetConfig(0, false).bay.system.disk;
    thermal::DriveThermalConfig drive;
    drive.geometry = bay.geometry;
    drive.rpm = bay.rpm;
    return 100.0 * std::fabs(thermal::steadyAirTempC(drive) - kPaperTable3C) /
           kPaperTable3C;
}

/// A fresh, empty checkpoint directory under the benchmark's scratch.
std::string
freshDir(const Args& a, const std::string& tag)
{
    const fs::path dir = fs::path(a.scratch) /
                         (a.workload + "-s" + std::to_string(a.seed) + "-p" +
                          std::to_string(::getpid()) + "-" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

FleetRep
fleetRep(const Args& a, int threads, const std::string& dir, SpanLog& spans,
         engine::TraceSink* sink)
{
    const auto cfg = fleetConfig(a.seed, a.tiny);
    const auto policy = checkpointPolicy(dir, a.tiny);
    FleetRep rep;
    {
        const ScopedSpan top(spans, "fleet.run", 0);
        fleet::FleetSimulation sim(cfg);
        rep.result = sim.run(threads, sink, &policy);
    }
    rep.submitted = std::uint64_t(cfg.totalBays()) * cfg.workload.requests;
    // Sizes are read before the directory goes.
    for (const auto& entry : fs::directory_iterator(dir)) {
        const auto name = entry.path().filename().string();
        if (entry.path().extension() != ".hdtsnap")
            continue;
        const auto dash = name.rfind('-');
        const auto index = std::stoull(name.substr(dash + 1));
        (index % policy.anchorEvery == 0 ? rep.fullBytes : rep.deltaBytes)
            .push_back(double(entry.file_size()));
    }
    fs::remove_all(dir);
    return rep;
}

/**
 * CPU seconds a fixed reference job takes right now.  The job is shaped
 * like the simulator's hot loop (a bounded priority queue, a sliding hash
 * map, random reads and writes over 8 MiB) but shares no code with the
 * library, so no library change moves it.  Shared hosts change speed by
 * half within minutes, in CPU time as well as wall time; dividing by this
 * job's time cancels most of that drift.
 */
double
referenceCpuSeconds()
{
    const double c0 = cpuSeconds();
    std::priority_queue<std::pair<double, std::uint64_t>> heap;
    std::unordered_map<std::uint64_t, std::uint64_t> window;
    std::vector<std::uint64_t> table(std::size_t(1) << 20);
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.emplace(double(x >> 11), i);
        if (heap.size() > 4096)
            heap.pop();
        window[i] = x;
        if (i >= 4096)
            window.erase(i - 4096);
        table[x & mask] += i;
        acc += table[(x >> 20) & mask];
    }
    const double elapsed = cpuSeconds() - c0;
    // Consume the result so the job cannot be optimized away.
    return acc == 0 ? elapsed * (1.0 + 1e-12) : elapsed;
}

/// Forget the resident-set high-water mark (Linux clear_refs "5"), so the
/// next peak belongs to the simulation rather than the reference job.
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident-set high-water mark since the last reset, MB (getrusage's
/// process-lifetime peak where /proc is unavailable).
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Repetition bookkeeping shared by the run and trace modes.

struct RepResult
{
    bool ok = false;
    std::string error;
    std::string digest;
    std::uint64_t requests = 0;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
    double referenceSeconds = 0.0; ///< referenceCpuSeconds() just before.
    double peakRssMb = 0.0;        ///< Resident peak during the repetition.
    double paperErrPct = 0.0;
    std::vector<Replay> replays; ///< fig4 workloads.
    std::optional<FleetRep> fleet;
};

std::string
fnvHex(const std::string& text)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, obs::fnv1a64(text));
    return buf;
}

RepResult
runRep(const Args& a, const std::vector<core::WorkloadScenario>& scenarios,
       int rep_index, SpanLog& spans, engine::TraceSink* storage_sink,
       engine::TraceSink* epoch_sink)
{
    RepResult out;
    spans.setRun(a.workload + "-s" + std::to_string(a.seed) + "-p" +
                 std::to_string(::getpid()) + "-r" +
                 std::to_string(rep_index));
    out.referenceSeconds = referenceCpuSeconds();
    // Hand the job's freed memory back to the kernel, then start a fresh
    // resident peak for the repetition itself.
    ::malloc_trim(0);
    resetPeakRss();
    const auto t0 = Clock::now();
    const double c0 = cpuSeconds();
    try {
        if (a.workload == "fleet_throttled") {
            auto rep = fleetRep(a, a.threads,
                                freshDir(a, "r" + std::to_string(rep_index)),
                                spans, epoch_sink);
            out.requests = rep.result.metrics.count();
            if (out.requests != rep.submitted)
                throw std::runtime_error("fleet left submitted requests "
                                         "incomplete");
            out.digest = fnvHex(rep.digestText());
            out.paperErrPct = fleetDrivePaperErrPct();
            out.fleet = std::move(rep);
        } else {
            std::string text;
            double err_sum = 0.0;
            for (const auto& s : scenarios) {
                for (std::size_t i = 0; i < s.rpmSteps().size(); ++i) {
                    auto r = replay(s, i, spans, storage_sink);
                    if (r.completed != r.submitted || r.inflight != 0)
                        throw std::runtime_error(
                            s.name + " left submitted requests incomplete");
                    out.requests += r.completed;
                    err_sum += std::fabs(r.meanMs - r.paperMs) / r.paperMs;
                    text += r.digestText() + "\n";
                    out.replays.push_back(std::move(r));
                }
            }
            out.paperErrPct = 100.0 * err_sum / double(out.replays.size());
            out.digest = fnvHex(text);
        }
        out.ok = true;
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    out.seconds = secondsSince(t0);
    out.cpuSeconds = cpuSeconds() - c0;
    out.peakRssMb = peakRssMb();
    return out;
}

/// The simulated headline figures of one repetition, for reports.
std::string
simulatedSummary(const RepResult& rep)
{
    std::string out;
    for (const auto& r : rep.replays) {
        out += r.scenario + "@" + fmt(r.rpm) + ": mean_ms=" + fmt(r.meanMs) +
               " p50_ms=" + fmt(r.p50Ms) + " p99_ms=" + fmt(r.p99Ms) +
               " paper_ms=" + fmt(r.paperMs) + "; ";
    }
    if (rep.fleet) {
        const auto& f = rep.fleet->result;
        out += "requests=" + std::to_string(f.metrics.count()) +
               " mean_ms=" + fmt(f.meanLatencyMs) +
               " overflow_frac=" +
               fmt(f.metrics.histogram().overflowFraction()) +
               " peak_temp_c=" + fmt(f.maxDriveTempC) +
               " gate_events=" + std::to_string(f.gateEvents) +
               " epochs=" + std::to_string(f.epochs);
    }
    return out;
}

std::string
manifestJson(const Args& a, int argc, char** argv)
{
    obs::RunManifest m;
    m.bench = "perfbench";
    m.gitSha = obs::buildGitSha();
    for (int i = 0; i < argc; ++i)
        m.command += (i ? " " : "") + std::string(argv[i]);
    m.seed = a.seed;
    m.config = "workload=" + a.workload + " mode=" + a.mode +
               " threads=" + std::to_string(a.threads) +
               (a.tiny ? " tiny" : "");
    m.configHash = obs::fnv1a64(m.config);
    std::string json = obs::toJson(m);
    std::replace(json.begin(), json.end(), '\n', ' ');
    return json;
}

// ---------------------------------------------------------------------------
// Per-layer figures.

/// Per-layer metrics in the order they were measured.
struct Layers
{
    std::vector<std::pair<std::string, double>> values;

    void set(const std::string& name, double v)
    {
        values.emplace_back(name, v);
    }
};

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           double(v.size());
}

/// Storage-layer figures: host times are medians over the untraced
/// repetitions; counters are simulated and identical in every one.
void
storageLayers(Layers& l, const std::vector<RepResult>& untraced)
{
    std::vector<double> gen, run, ns_per_event;
    std::map<std::string, std::vector<double>> per_scenario;
    for (const auto& rep : untraced) {
        double g = 0.0, r = 0.0;
        std::uint64_t events = 0;
        std::map<std::string, std::pair<double, double>> sc;
        for (const auto& x : rep.replays) {
            g += x.genSec;
            r += x.runSec;
            events += x.events;
            sc[x.scenario].first += double(x.completed);
            sc[x.scenario].second += x.totalSec;
        }
        gen.push_back(g);
        run.push_back(r);
        ns_per_event.push_back(events ? 1e9 * r / double(events) : 0.0);
        for (const auto& [name, v] : sc)
            per_scenario[name].push_back(v.first / v.second);
    }
    const auto& first = untraced.front().replays;
    std::uint64_t requests = 0, bytes = 0, events = 0, reads = 0, hits = 0,
                  subs = 0, seeks = 0;
    double util = 0.0, depth = 0.0;
    int disks = 0;
    for (const auto& x : first) {
        requests += x.completed;
        bytes += x.traceBytes;
        events += x.events;
        reads += x.reads;
        hits += x.readHits;
        subs += x.subRequests;
        seeks += x.seeks;
        util += x.utilizationSum;
        depth += x.queueDepthSum;
        disks += x.disks;
    }
    l.set("trace.gen_s", median(gen));
    l.set("trace.requests", double(requests));
    l.set("trace.bytes", double(bytes));
    l.set("engine.events", double(events));
    l.set("engine.events_per_req", double(events) / double(requests));
    l.set("engine.ns_per_event", median(ns_per_event));
    l.set("sim.run_s", median(run));
    for (const auto& [name, v] : per_scenario)
        l.set("sim." + name + ".req_per_s", median(v));
    l.set("sim.cache.read_hit_ratio", reads ? double(hits) / double(reads)
                                            : 0.0);
    l.set("sim.cache.reads", double(reads));
    l.set("sim.subreq_per_req", double(subs) / double(requests));
    l.set("sim.seeks", double(seeks));
    l.set("sim.utilization_mean", util / double(disks));
    l.set("sim.queue_depth_mean", depth / double(disks));
}

/// Fleet figures from the traced repetition (epoch sink + obs counters).
void
fleetLayers(Layers& l, const FleetRep& rep, const EpochSink& sink,
            std::int64_t run_end_ns, const fleet::FleetConfig& cfg)
{
    const auto& r = rep.result;
    // Group the fleet-epoch fires by timestamp: a barrier alone is a plain
    // epoch; a barrier sharing its timestamp with the checkpoint task is a
    // checkpoint epoch.  A group lasts until the next group's first fire.
    const auto& fires = sink.fires();
    std::vector<double> plain_ms, ckpt_ms;
    std::uint64_t checkpoints = 0;
    for (std::size_t i = 0; i < fires.size();) {
        std::size_t j = i + 1;
        while (j < fires.size() && fires[j].when == fires[i].when)
            ++j;
        const std::int64_t end = j < fires.size() ? fires[j].ns : run_end_ns;
        const double ms = double(end - fires[i].ns) * 1e-6;
        if (j - i > 1) {
            ckpt_ms.push_back(ms);
            ++checkpoints;
        } else {
            plain_ms.push_back(ms);
        }
        i = j;
    }
    std::vector<double> sorted = plain_ms;
    const double p50 = median(plain_ms);
    const double p99 = exactQuantile(sorted, 0.99);

    auto& reg = obs::MetricsRegistry::global();
    const double hits = double(reg.counter("sim.cache.read_hit").value());
    const double misses = double(reg.counter("sim.cache.read_miss").value());
    const double completed =
        double(reg.counter("sim.system.completed").value());
    const double pushed = double(reg.counter("sim.scheduler.pushed").value());

    const double bays = double(cfg.totalBays());
    // Each bay ticks its DTM loop (one thermal step per tick) every
    // control interval until its trace completes; the slowest bay's span
    // bounds them all.
    const double tick_bound =
        bays * std::floor(r.simulatedSec / cfg.bay.controlIntervalSec);

    l.set("engine.events", double(sink.events()));
    l.set("sim.cache.read_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
    l.set("sim.cache.reads", hits + misses);
    l.set("sim.subreq_per_req", completed > 0 ? pushed / completed : 0.0);
    l.set("fleet.epochs", double(r.epochs));
    l.set("fleet.epoch_ms_p50", p50);
    l.set("fleet.epoch_ms_p99", p99);
    l.set("fleet.epoch_samples", double(plain_ms.size()));
    l.set("fleet.executor.tasks", double(r.executor.tasks));
    l.set("fleet.executor.steals", double(r.executor.steals));
    l.set("fleet.steal_ratio",
          r.executor.tasks ? double(r.executor.steals) /
                                 double(r.executor.tasks)
                           : 0.0);
    l.set("dtm.ticks", tick_bound);
    l.set("dtm.gate_events", double(r.gateEvents));
    l.set("dtm.gated_s", r.gatedSec);
    l.set("thermal.steps",
          tick_bound * std::round(cfg.bay.controlIntervalSec /
                                  cfg.bay.thermalDtSec));
    l.set("snap.checkpoints", double(checkpoints));
    const double ckpt_p50 = median(ckpt_ms);
    l.set("snap.ckpt_epoch_ms_p50", ckpt_p50);
    l.set("snap.ckpt_ms", checkpoints ? ckpt_p50 - p50 : 0.0);
    const double full = mean(rep.fullBytes);
    const double delta = mean(rep.deltaBytes);
    l.set("snap.bytes_full_mean", full);
    l.set("snap.bytes_delta_mean", delta);
    l.set("snap.delta_ratio", full > 0 ? delta / full : 0.0);
}

/// Trace generation through the same public API the fleet uses, one bay
/// at a time (the fleet itself generates inside run()).
void
fleetTraceLayers(Layers& l, const fleet::FleetConfig& cfg, SpanLog& spans)
{
    const ScopedSpan top(spans, "trace.fleet_regen", 0);
    const sim::StorageSystem probe(cfg.bay.system);
    double bytes = 0.0, requests = 0.0;
    const auto t0 = Clock::now();
    for (const auto& bay : fleet::enumerateBays(cfg)) {
        trace::WorkloadSpec spec = cfg.workload;
        spec.seed = util::deriveStreamSeed(cfg.seed,
                                           std::uint64_t(bay.globalIndex));
        spec.devices = cfg.bay.system.raid == sim::RaidLevel::None
                           ? probe.diskCount()
                           : 1;
        const trace::Trace tr =
            trace::SyntheticWorkload(spec).generate(probe.logicalSectors());
        const auto reqs = tr.toRequests();
        requests += double(reqs.size());
        bytes += double(tr.size() * sizeof(trace::TraceRecord) +
                        reqs.size() * sizeof(sim::IoRequest));
    }
    l.set("trace.gen_s", secondsSince(t0));
    l.set("trace.requests", requests);
    l.set("trace.bytes", bytes);
}

// ---------------------------------------------------------------------------
// Modes

int
probeMode(const Args& a)
{
    FirstFireSink sink;
    std::int64_t fired_ns = -1;
    double fired_cpu = 0.0;
    try {
        if (a.workload == "fleet_throttled") {
            const auto dir = freshDir(a, "probe");
            const auto policy = checkpointPolicy(dir, a.tiny);
            try {
                fleet::FleetSimulation sim(fleetConfig(a.seed, a.tiny));
                sim.run(a.threads, &sink, &policy);
            } catch (const FirstFire& f) {
                fired_ns = f.ns;
                fired_cpu = f.cpu;
            }
            fs::remove_all(dir);
        } else {
            const auto scenarios = fig4Scenarios(a.workload, a.seed, a.tiny);
            SpanLog spans;
            try {
                replay(scenarios.front(), 0, spans, &sink);
            } catch (const FirstFire& f) {
                fired_ns = f.ns;
                fired_cpu = f.cpu;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: probe failed: %s\n", e.what());
        return 1;
    }
    if (fired_ns < 0 || a.t0Ns < 0) {
        std::fprintf(stderr, "perfbench: probe saw no event (or no --t0-ns)\n");
        return 1;
    }
    std::printf("%s\n",
                Json()
                    .num("setup_s", double(fired_ns - a.t0Ns) * 1e-9)
                    .num("setup_cpu_s", fired_cpu)
                    .text()
                    .c_str());
    return 0;
}

/// Fixed integer work (xorshift mixing); the result defeats elision.
std::uint64_t
burnWork(std::uint64_t iters)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

int
burnMode()
{
    // Calibrate to ~0.1 s on one thread, then run that work on every
    // hardware thread at once: effective parallelism = n * t1 / tn.
    std::uint64_t iters = 1u << 20;
    double t1 = 0.0;
    volatile std::uint64_t sink = 0;
    while (true) {
        const auto t = Clock::now();
        sink = sink + burnWork(iters);
        t1 = secondsSince(t);
        if (t1 >= 0.1)
            break;
        iters *= 2;
    }
    // Best of three single-thread timings.
    for (int k = 0; k < 2; ++k) {
        const auto t = Clock::now();
        sink = sink + burnWork(iters);
        t1 = std::min(t1, secondsSince(t));
    }
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    const auto t = Clock::now();
    {
        std::vector<std::thread> workers;
        for (unsigned i = 0; i < n; ++i)
            workers.emplace_back([iters, &sink]() {
                const std::uint64_t x = burnWork(iters);
                if (x == 0)
                    sink = x;
            });
        for (auto& w : workers)
            w.join();
    }
    const double tn = secondsSince(t);
    std::printf("%s\n", Json()
                            .num("hardware_threads", double(n))
                            .num("effective_parallelism", double(n) * t1 / tn)
                            .text()
                            .c_str());
    return 0;
}

int
measureMode(const Args& a, int argc, char** argv)
{
    const bool trace_mode = a.mode == "trace";
    Layers layers;
    if (trace_mode) {
        // First call pays the calibration (cached for the process).
        const auto t = Clock::now();
        thermal::DriveThermalModel::calibratedExternalFilmCoefficient();
        layers.set("thermal.calibration_s", secondsSince(t));
    }

    const bool fleet_workload = a.workload == "fleet_throttled";
    const auto scenarios = fleet_workload
                               ? std::vector<core::WorkloadScenario>{}
                               : fig4Scenarios(a.workload, a.seed, a.tiny);
    SpanLog spans;
    std::vector<RepResult> reps;
    // The trace mode spends half its budget untraced, then traces once.
    // A repetition starts only if one more of median length still fits.
    const double budget = trace_mode ? 0.5 * a.seconds : a.seconds;
    const auto start = Clock::now();
    std::vector<double> durations;
    int index = 0;
    while (a.reps > 0 ? index < a.reps
                      : (index == 0 ||
                         secondsSince(start) + median(durations) <= budget)) {
        reps.push_back(runRep(a, scenarios, index, spans, nullptr, nullptr));
        durations.push_back(reps.back().seconds);
        ++index;
    }

    // Requests per host-second three ways: wall clock, CPU time, and CPU
    // time in units of the reference job (the host-drift-free figure).
    const auto per_reference = [](const RepResult& rep) {
        return double(rep.requests) * rep.referenceSeconds / rep.cpuSeconds;
    };
    std::vector<double> rates, cpu_rates, ref_rates;
    std::string digest, error, summary;
    bool consistent = true;
    std::uint64_t failed = 0;
    double paper_err = 0.0;
    double peak_rss = 0.0;
    for (const auto& rep : reps) {
        peak_rss = std::max(peak_rss, rep.peakRssMb);
        if (!rep.ok) {
            ++failed;
            error = rep.error;
            continue;
        }
        rates.push_back(double(rep.requests) / rep.seconds);
        cpu_rates.push_back(double(rep.requests) / rep.cpuSeconds);
        ref_rates.push_back(per_reference(rep));
        if (digest.empty()) {
            digest = rep.digest;
            paper_err = rep.paperErrPct;
            summary = simulatedSummary(rep);
        }
        consistent = consistent && rep.digest == digest;
    }
    std::uint64_t attempted = reps.size();

    if (trace_mode && failed == 0) {
        obs::setEnabled(true);
        obs::MetricsRegistry::global().resetValues();
        engine::KernelMetricsSink kernel_sink;
        EpochSink epoch_sink;
        auto traced = runRep(a, scenarios, index, spans,
                             fleet_workload ? nullptr : &kernel_sink,
                             fleet_workload ? &epoch_sink : nullptr);
        const std::int64_t end_ns = monotonicNs();
        obs::setEnabled(false);
        ++attempted;
        if (!traced.ok) {
            ++failed;
            error = traced.error;
        } else {
            consistent = consistent && traced.digest == digest;
            const double traced_rate = per_reference(traced);
            const double untraced_rate = median(ref_rates);
            layers.set("obs.trace_overhead_pct",
                       100.0 * (untraced_rate - traced_rate) / untraced_rate);
            if (fleet_workload) {
                const auto cfg = fleetConfig(a.seed, a.tiny);
                fleetLayers(layers, *traced.fleet, epoch_sink, end_ns, cfg);
                fleetTraceLayers(layers, cfg, spans);
                // Epoch spans, recorded by the sink, join the span log.
                const auto& fires = epoch_sink.fires();
                for (std::size_t i = 0; i < fires.size(); ++i)
                    spans.add("fleet.epoch_event", 0, fires[i].ns,
                              i + 1 < fires.size() ? fires[i + 1].ns
                                                   : end_ns);
            } else {
                storageLayers(layers, reps);
                // Held-out check: the generators were tuned on seed 0.
                Args seed0 = a;
                seed0.seed = 0;
                const auto base = runRep(
                    seed0, fig4Scenarios(a.workload, 0, a.tiny), index + 1,
                    spans, nullptr, nullptr);
                if (base.ok)
                    layers.set("sim.paper_err_pct_seed0", base.paperErrPct);
            }
        }
    }

    if (!a.spans.empty() && !spans.write(a.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
        return 1;
    }

    Json out;
    out.str("mode", a.mode)
        .num("attempted", double(attempted))
        .num("failed", double(failed))
        .str("error", error)
        .str("digest", failed ? "" : digest)
        .raw("consistent", consistent ? "true" : "false")
        .str("summary", summary)
        .num("req_per_s", median(rates))
        .num("req_per_cpu_s", median(cpu_rates))
        .num("req_per_ref", median(ref_rates))
        .num("reference_cpu_s", [&reps] {
            std::vector<double> v;
            for (const auto& rep : reps)
                v.push_back(rep.referenceSeconds);
            return median(v);
        }())
        .num("peak_rss_mb", peak_rss)
        .num("paper_err_pct", paper_err)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .raw("manifest", manifestJson(a, argc, argv));
    if (trace_mode) {
        Json l;
        for (const auto& [k, v] : layers.values)
            l.num(k, v);
        out.raw("per_layer", l.text());
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args a = parseArgs(argc, argv);
    util::setLogLevel(util::LogLevel::Quiet);
    // Metric collection stays off unless a traced repetition turns it on.
    obs::setEnabled(false);
    if (a.mode == "burn")
        return burnMode();
    if (a.mode == "probe")
        return probeMode(a);
    return measureMode(a, argc, argv);
}

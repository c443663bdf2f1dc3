/**
 * @file
 * Shared types of the repo benchmark (perfbench): host clocks, the
 * span tracer, one repetition's outcome, and the workload table.
 *
 * A run of `perfbench --workload W` repeats one closed batch job of W
 * until its time budget is spent. Every repetition builds the
 * simulation from scratch (set-up), runs it to completion (the timed
 * run), and checks its outputs. Host costs are reported as the median
 * of the fastest quarter of repetitions; modelled results are
 * deterministic and must be byte-identical across repetitions.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <map>
#include <string>
#include <vector>

#include "base/types.h"
#include "dma/protection_mode.h"

namespace perfbench {

using rio::u32;
using rio::u64;

/** Host wall clock (steady) and process CPU time (all threads). */
double wallNow();
double cpuNow();

/** Peak resident set of the process so far, MB. */
double peakRssMb();

/** Run length: the measured shape, or a tiny one for the self-test. */
enum class Size { kFull, kTiny };

/**
 * In-memory span recorder. With tracing off, scope() records nothing
 * and costs two branch tests. A span's module is its name up to the
 * first '.', e.g. "sys.Cluster" belongs to module sys.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; //!< wall seconds
        double end = 0;
        int parent = -1; //!< index into spans(), -1 = root
    };

    class Scope
    {
      public:
        Scope(Tracer *t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span around the enclosing block (no-op when disabled). */
    Scope
    scope(const char *name)
    {
        return Scope(enabled_ ? this : nullptr, name);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of durations of spans [from, to) named exactly @p name. */
    double total(const std::string &name, size_t from, size_t to) const;

    /** Self time (duration minus children) per module over [from, to). */
    std::map<std::string, double> selfByModule(size_t from,
                                               size_t to) const;

    /** Write every span as JSON (name, start, end, parent, workload). */
    bool writeJson(const std::string &path,
                   const std::string &workload) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Shape of the dma/iova/iommu/riommu probes, taken from a workload. */
struct ProbeShape
{
    std::vector<u32> ring_sizes; //!< rRING sizes of the rIOMMU handle
    u64 live = 1;     //!< live mappings held while probing
    u32 burst = 1;    //!< maps (then unmaps) per burst
    u32 bytes = 1500; //!< mapping size
};

/** Outcome of one repetition of a workload. */
struct Rep
{
    double setup_s = 0;    //!< construction + bring-up, wall
    double run_wall_s = 0; //!< the timed run, wall
    double run_cpu_s = 0;  //!< the timed run, CPU (all threads)
    u64 sim_ops = 0;       //!< packets / completions / pages simulated
    u64 attempted = 0;     //!< packets / posts / pages attempted
    u64 op_errors = 0;     //!< simulated ops that completed in error
    std::vector<std::string> violations; //!< failed output checks

    /**
     * Deterministic modelled results: the end-to-end cycles/op and
     * every modelled per-layer counter. Serialized, this is the
     * repetition's fingerprint.
     */
    std::map<std::string, double> modelled;
    ProbeShape shape;

    std::string fingerprint() const;
    void check(bool ok, const std::string &what);
};

struct Workload
{
    const char *name;
    Rep (*run)(u64 seed, Size size, Tracer &tr);
    /**
     * The same job on a min(3, nproc)-thread engine pool, or null. Run
     * once per invocation, untimed: its modelled results must equal
     * the single-threaded repetitions' exactly.
     */
    Rep (*pooled)(u64 seed, Size size, Tracer &tr) = nullptr;
};

const std::vector<Workload> &workloads();

/** Engine worker threads of a pooled run: min(3, nproc). */
unsigned poolThreads();

/** Metric-name forms of the cycles::Cat rows, in enum order. */
inline constexpr const char *kCatSlugs[] = {
    "map_iova_alloc", "map_page_table",  "map_other",
    "unmap_iova_find", "unmap_iova_free", "unmap_page_table",
    "unmap_iotlb_inv", "unmap_other",     "processing",
    "lock_wait",       "fault_handling",  "lifecycle",
    "virt"};

/** Metric-name form of a protection mode ("strict+" -> "strict_plus"). */
std::string modeSlug(rio::dma::ProtectionMode mode);

/** Derive an independent 64-bit stream seed from the run seed. */
u64 deriveSeed(u64 seed, u64 stream);

/**
 * Time the dma/iova/iommu/riommu/cycles/nic/rdma probes shaped like
 * @p shape (map/unmap under riommu and strict), adding per-op costs
 * to @p out and one span per probe to @p tr. Returns the number of
 * probe operations that failed.
 */
u64 runProbes(const ProbeShape &shape, Tracer &tr,
              std::map<std::string, double> &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

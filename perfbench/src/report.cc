#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>

#include "base/strings.h"

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

unsigned
poolThreads()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n >= 3 ? 3u : (n < 1 ? 1u : static_cast<unsigned>(n));
}

std::string
modeSlug(rio::dma::ProtectionMode mode)
{
    std::string out;
    for (const char *p = rio::dma::modeName(mode); *p; ++p) {
        if (*p == '+')
            out += "_plus";
        else if (*p == '-')
            out += "_minus";
        else
            out += *p;
    }
    return out;
}

u64
deriveSeed(u64 seed, u64 stream)
{
    // splitmix64 over (seed, stream): distinct streams never collide
    // for a given run seed, and nearby seeds give unrelated streams.
    u64 z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1; // nonzero: some Rng streams reject 0
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer *t, const char *name) : t_(t)
{
    if (!t_)
        return;
    Span s;
    s.name = name;
    s.parent = t_->open_.empty() ? -1 : t_->open_.back();
    idx_ = static_cast<int>(t_->spans_.size());
    t_->spans_.push_back(std::move(s));
    t_->open_.push_back(idx_);
    t_->spans_[idx_].start = wallNow();
}

Tracer::Scope::~Scope()
{
    if (!t_)
        return;
    t_->spans_[idx_].end = wallNow();
    t_->open_.pop_back();
}

double
Tracer::total(const std::string &name, size_t from, size_t to) const
{
    double sum = 0;
    for (size_t i = from; i < to; ++i)
        if (spans_[i].name == name)
            sum += spans_[i].end - spans_[i].start;
    return sum;
}

std::map<std::string, double>
Tracer::selfByModule(size_t from, size_t to) const
{
    std::vector<double> self(to, 0.0);
    for (size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        self[i] += s.end - s.start;
        if (s.parent >= static_cast<int>(from))
            self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = from; i < to; ++i) {
        const std::string &n = spans_[i].name;
        out[n.substr(0, n.find('.'))] += self[i];
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path, const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n {\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %d, "
                     "\"workload\": \"%s\"}",
                     i ? "," : "", s.name.c_str(), s.start - t0,
                     s.end - t0, s.parent, workload.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---- Rep ----------------------------------------------------------------

std::string
Rep::fingerprint() const
{
    std::string out;
    for (const auto &[k, v] : modelled)
        out += rio::strprintf("%s=%.17g;", k.c_str(), v);
    out += rio::strprintf("ops=%llu;attempted=%llu;errors=%llu",
                          static_cast<unsigned long long>(sim_ops),
                          static_cast<unsigned long long>(attempted),
                          static_cast<unsigned long long>(op_errors));
    return out;
}

void
Rep::check(bool ok, const std::string &what)
{
    if (!ok)
        violations.push_back(what);
}

} // namespace perfbench

#include "tracing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bench {

namespace {

thread_local int t_current = -1;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
Tracer::begin(const char *name, int parent)
{
    if (!enabled_)
        return -1;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_).count();
    th::LockGuard lock(mu_);
    SpanRecord s;
    s.name = name;
    s.startNs = now;
    s.endNs = -1;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_).count();
    th::LockGuard lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::vector<SpanRecord> out;
    th::LockGuard lock(mu_);
    for (const SpanRecord &s : spans_)
        if (s.endNs >= 0)
            out.push_back(s);
    return out;
}

bool
Tracer::writeJson(const std::string &path, const std::string &workload,
                  std::uint64_t seed) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    const std::vector<SpanRecord> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "%s\n{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld}",
                     i == 0 ? "" : ",", s.id, s.parent, s.name.c_str(),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer &tracer, const char *name, int parent)
    : tracer_(tracer),
      id_(tracer.begin(name, parent == kInherit ? t_current : parent)),
      saved_(t_current)
{
    if (id_ >= 0)
        t_current = id_;
}

ScopedSpan::~ScopedSpan()
{
    tracer_.end(id_);
    if (id_ >= 0)
        t_current = saved_;
}

int
currentSpan()
{
    return t_current;
}

std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<SpanRecord> &spans)
{
    // Child intervals per parent id, for the union below.
    std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : spans) {
        const std::int64_t dur = s.endNs - s.startNs;
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = 0, hi = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (a > hi) {
                    covered += std::max<std::int64_t>(0, hi - lo);
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += std::max<std::int64_t>(0, hi - lo);
        }
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalMs += static_cast<double>(dur) * 1e-6;
        t.selfMs += static_cast<double>(dur - covered) * 1e-6;
        t.durationsMs.push_back(static_cast<double>(dur) * 1e-6);
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nearestRank(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

Tail
tailPercentile(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double beyond = n - std::ceil(pct / 100.0 * n - 1e-9);
        if (beyond >= 10.0) {
            t.pct = pct;
            t.value = nearestRank(v, pct);
            return t;
        }
    }
    t.pct = 100.0;
    t.value = v.back();
    return t;
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace bench

/**
 * @file
 * Command-line simulation driver: run any benchmark on any
 * configuration and optionally dump the full statistics, power, and
 * thermal breakdowns — the library's gem5-style "one binary to poke
 * everything" entry point.
 *
 * Usage:
 *   simulate [--bench NAME] [--config Base|TH|Pipe|Fast|3D|3D-noTH]
 *            [--insts N] [--warmup N] [--stats] [--power] [--thermal]
 *            [--list]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "core/activity.h"
#include "sim/system.h"
#include "trace/suites.h"

namespace {

using namespace th;

ConfigKind
parseConfig(const std::string &name)
{
    if (name == "Base")
        return ConfigKind::Base;
    if (name == "TH")
        return ConfigKind::TH;
    if (name == "Pipe")
        return ConfigKind::Pipe;
    if (name == "Fast")
        return ConfigKind::Fast;
    if (name == "3D")
        return ConfigKind::ThreeD;
    if (name == "3D-noTH")
        return ConfigKind::ThreeDNoTH;
    std::cerr << "unknown config '" << name
              << "' (Base|TH|Pipe|Fast|3D|3D-noTH)\n";
    std::exit(1);
}

/** One --stats line per counter; a histogram prints count and mean. */
void
printStat(const char *group, const char *name, const Counter &c)
{
    std::cout << group << '.' << name << ' ' << c.value() << '\n';
}

void
printStat(const char *group, const char *name, const Histogram &h)
{
    std::cout << group << '.' << name << ".count " << h.count() << '\n'
              << group << '.' << name << ".mean " << h.mean() << '\n';
}

void
usage()
{
    std::cout <<
        "usage: simulate [options]\n"
        "  --bench NAME    benchmark to run (default mpeg2enc)\n"
        "  --config NAME   Base|TH|Pipe|Fast|3D|3D-noTH (default 3D)\n"
        "  --insts N       measured instructions (default 150000)\n"
        "  --warmup N      warm-up instructions (default 90000)\n"
        "  --stats         dump every counter\n"
        "  --power         print the power breakdown\n"
        "  --thermal       print the thermal report\n"
        "  --list          list available benchmarks and exit\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace th;

    std::string bench = "mpeg2enc";
    std::string config = "3D";
    SimOptions opts;
    opts.instructions = 150000;
    opts.warmupInstructions = 90000;
    bool dump_stats = false, show_power = false, show_thermal = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = next();
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--insts") {
            opts.instructions = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--warmup") {
            opts.warmupInstructions =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--power") {
            show_power = true;
        } else if (arg == "--thermal") {
            show_thermal = true;
        } else if (arg == "--list") {
            for (const auto &p : allBenchmarks())
                std::cout << p.name << " (" << p.suite << ")\n";
            return 0;
        } else {
            usage();
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    if (!hasBenchmark(bench)) {
        std::cerr << "unknown benchmark '" << bench
                  << "'; use --list\n";
        return 1;
    }

    System sys(opts);
    const ConfigKind kind = parseConfig(config);
    const Evaluation ev = sys.evaluate(bench, kind);

    std::cout << bench << " on " << configName(kind) << " @ "
              << fmtDouble(makeConfig(kind, sys.circuits()).freqGhz, 2)
              << " GHz:\n";
    std::cout << "  IPC " << fmtDouble(ev.core.perf.ipc(), 3)
              << ", " << fmtDouble(ev.core.ipns(), 2) << " insts/ns, "
              << fmtDouble(ev.power.totalW(), 1) << " W\n";

    if (show_power) {
        std::cout << "\npower: clock " << fmtDouble(ev.power.clockW, 1)
                  << " W, leakage " << fmtDouble(ev.power.leakW, 1)
                  << " W, dynamic " << fmtDouble(ev.power.dynamicW(), 1)
                  << " W (top-die share "
                  << fmtPercent(ev.power.topDieFraction()) << ")\n";
        Table t({"Block", "W (per core)", "die0", "die1", "die2",
                 "die3"});
        for (int i = 0; i < kNumCoreBlocks; ++i) {
            const BlockPower &b =
                ev.power.coreBlocks[static_cast<size_t>(i)];
            if (b.total() < 0.005)
                continue;
            t.addRow({blockName(static_cast<BlockId>(i)),
                      fmtDouble(b.total(), 2),
                      fmtDouble(b.dieW[0], 2), fmtDouble(b.dieW[1], 2),
                      fmtDouble(b.dieW[2], 2), fmtDouble(b.dieW[3], 2)});
        }
        t.print(std::cout);
    }

    if (show_thermal) {
        const ThermalReport rep = sys.thermal(ev);
        std::cout << "\nthermal: peak " << fmtDouble(rep.peakK, 1)
                  << " K at " << rep.hottestBlock << " (die "
                  << rep.hottestDie << ")\n";
        Table t({"Block", "Die", "W", "Avg K", "Peak K"});
        for (const auto &b : rep.blocks) {
            if (b.core == 1)
                continue; // cores are symmetric
            t.addRow({blockName(b.id), std::to_string(b.die),
                      fmtDouble(b.powerW, 2), fmtDouble(b.avgK, 1),
                      fmtDouble(b.peakK, 1)});
        }
        t.print(std::cout);
    }

    if (dump_stats) {
        std::cout << "\n";
        forEachPerfStat([](const char *name, const auto &s) {
            printStat("core", name, s);
        }, ev.core.perf);
        forEachActivityStat([](const char *name, const Counter &c) {
            printStat("activity", name, c);
        }, ev.core.activity);
    }
    return 0;
}

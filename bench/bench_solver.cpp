/**
 * @file
 * Thermal-solver microbenchmark: times steady-state solves of the
 * 4-die stack at grid resolutions 32/64/128 for both steady solvers
 * (lexicographic SOR and geometric multigrid) at 1 and 4 worker
 * threads, and emits JSON so BENCH_*.json files can track the
 * solver's perf trajectory across PRs. The SOR sweep runs on one
 * thread, so its 4-thread rows time the same serial kernel as its
 * 1-thread rows; only multigrid fans out.
 *
 * steady_ms times building the grid, depositing its power and the
 * first (cold) solve together, so it does not depend on whether the
 * grid builds its network at construction or at the first solve. The
 * repeat solve is seeded from the first solve's converged field, so
 * warm_steady_ms measures the warm-start path. Each case runs kReps
 * times; a time is the best of them, and its spread is
 * (slowest - best) / best.
 *
 * Usage: bench_solver [output.json]   (always prints to stdout too)
 *        bench_solver --smoke
 *
 * --smoke runs only grid 64 at 4 threads, once, and exits nonzero if the
 * multigrid solver regresses: cycle count above a pinned bound, or
 * peak temperature drifting from SOR's by more than a fixed margin.
 * The margin is dominated by SOR's own stopping error (its per-sweep
 * delta understates true error at large grids), not by multigrid's.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "thermal/hotspot.h"

namespace {

using namespace th;

/** Runs per case in the JSON snapshot. */
constexpr int kReps = 5;

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** A stacked grid with a Figure-10-style hotspot power map. */
ThermalGrid
makeGrid(int grid_n, SolverKind solver)
{
    ThermalParams p;
    p.gridN = grid_n;
    p.solver = solver;
    ThermalGrid grid(p, HotspotModel::stackedStack(), 10.5, 10.5);
    for (int die = 0; die < kNumDies; ++die) {
        grid.addPower(die, 0.0, 0.0, 10.5, 10.5, 8.0);
        // Concentrated hotspot in one corner, like a herded ROB/RS.
        grid.addPower(die, 1.0, 1.0, 2.0, 2.0, 6.0);
    }
    return grid;
}

/** Best of a set of timings, and their spread about it. */
struct Timing
{
    double bestMs = 0.0;
    double spread = 0.0; ///< (slowest - best) / best.

    explicit Timing(std::vector<double> ms)
    {
        const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
        bestMs = *lo;
        spread = *lo > 0.0 ? (*hi - *lo) / *lo : 0.0;
    }
};

struct Case
{
    int gridN = 0;
    const char *solver = "";
    int threads = 0;
    int reps = 0;
    double steadyMs = 0.0; ///< Build + deposit + cold solve, best.
    double steadySpread = 0.0;
    int steadyIters = 0; ///< SOR sweeps or multigrid cycles.
    double contraction = 0.0; ///< Final-cycle delta ratio (MG only).
    double estErrorK = 0.0;   ///< Error-to-fixed-point bound (K).
    double steadyPeakK = 0.0;
    double warmSteadyMs = 0.0; ///< Repeat solve seeded from `steady`.
    double warmSpread = 0.0;
    int warmIters = 0;
};

Case
runCase(int grid_n, SolverKind solver, int threads, int reps)
{
    Case c;
    c.gridN = grid_n;
    c.solver = solverKindName(solver);
    c.threads = threads;
    c.reps = reps;
    ThreadPool::setGlobalThreads(threads);
    std::vector<double> steady_ms, warm_ms;
    for (int r = 0; r < reps; ++r) {
        ThermalGrid::SolveStats stats;
        auto t0 = std::chrono::steady_clock::now();
        ThermalGrid grid = makeGrid(grid_n, solver);
        const ThermalField steady = grid.solve(&stats);
        steady_ms.push_back(msSince(t0));
        c.steadyIters = stats.iterations;
        c.contraction = stats.contraction;
        c.estErrorK = stats.estErrorK;
        c.steadyPeakK = steady.peak(grid.dieLayers());

        // Repeat solve seeded from the converged field: the DTM loop's
        // common case (small power deltas between intervals).
        t0 = std::chrono::steady_clock::now();
        grid.solve(&stats, &steady);
        warm_ms.push_back(msSince(t0));
        c.warmIters = stats.iterations;
    }
    const Timing steady(steady_ms), warm(warm_ms);
    c.steadyMs = steady.bestMs;
    c.steadySpread = steady.spread;
    c.warmSteadyMs = warm.bestMs;
    c.warmSpread = warm.spread;
    return c;
}

int
runSmoke()
{
    // Pinned bounds for CI (see DESIGN.md §11). Measured on this
    // power map: ~10 W-cycles at grid 64, |peak_mg - peak_sor| well
    // under 0.1 K with SOR's stopping error the dominant term.
    constexpr int kMaxVCycles = 16;
    constexpr double kPeakToleranceK = 0.5;

    const Case sor = runCase(64, SolverKind::Sor, 4, 1);
    const Case mg = runCase(64, SolverKind::Multigrid, 4, 1);
    const double dpeak = std::fabs(mg.steadyPeakK - sor.steadyPeakK);
    std::cerr << "smoke: sor " << sor.steadyMs << " ms ("
              << sor.steadyIters << " sweeps, peak " << sor.steadyPeakK
              << " K), multigrid " << mg.steadyMs << " ms ("
              << mg.steadyIters << " cycles, peak " << mg.steadyPeakK
              << " K, contraction " << mg.contraction
              << ", est error " << mg.estErrorK << " K), |dpeak| "
              << dpeak << " K\n";
    bool ok = true;
    if (mg.steadyIters > kMaxVCycles) {
        std::cerr << "FAIL: multigrid took " << mg.steadyIters
                  << " cycles at grid 64 (bound " << kMaxVCycles
                  << ")\n";
        ok = false;
    }
    if (dpeak > kPeakToleranceK) {
        std::cerr << "FAIL: solver peaks disagree by " << dpeak
                  << " K at grid 64 (bound " << kPeakToleranceK
                  << " K)\n";
        ok = false;
    }
    if (mg.warmIters > mg.steadyIters) {
        std::cerr << "FAIL: warm-started solve took " << mg.warmIters
                  << " cycles, cold took " << mg.steadyIters << "\n";
        ok = false;
    }
    if (ok)
        std::cerr << "smoke: OK\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return runSmoke();

    std::ostringstream json;
    json << "{\n  \"benchmark\": \"thermal_solver\",\n"
         << "  \"schema\": 4,\n  \"cases\": [\n";
    bool first = true;
    for (int grid_n : {32, 64, 128}) {
        for (SolverKind solver :
             {SolverKind::Sor, SolverKind::Multigrid}) {
            for (int threads : {1, 4}) {
                const Case c = runCase(grid_n, solver, threads, kReps);
                if (!first)
                    json << ",\n";
                first = false;
                json << "    {\"grid\": " << c.gridN
                     << ", \"solver\": \"" << c.solver << "\""
                     << ", \"threads\": " << c.threads
                     << ", \"reps\": " << c.reps
                     << ", \"steady_ms\": " << c.steadyMs
                     << ", \"steady_spread\": " << c.steadySpread
                     << ", \"steady_iterations\": " << c.steadyIters
                     << ", \"contraction\": " << c.contraction
                     << ", \"est_error_k\": " << c.estErrorK
                     << ", \"steady_peak_k\": " << c.steadyPeakK
                     << ", \"warm_steady_ms\": " << c.warmSteadyMs
                     << ", \"warm_spread\": " << c.warmSpread
                     << ", \"warm_iterations\": " << c.warmIters
                     << "}";
                std::cerr << "grid " << c.gridN << " " << c.solver
                          << " t" << c.threads << ": steady "
                          << c.steadyMs << " ms (+" << c.steadySpread
                          << ", " << c.steadyIters << " iters), warm "
                          << c.warmSteadyMs << " ms (+" << c.warmSpread
                          << ", " << c.warmIters << " iters)\n";
            }
        }
    }
    json << "\n  ]\n}\n";

    std::cout << json.str();
    if (argc > 1) {
        std::ofstream out(argv[1]);
        out << json.str();
    }
    return 0;
}

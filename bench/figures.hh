/**
 * @file
 * The paper's figure benches as FigureBench builders, one per bench
 * binary. Each builder declares the figure's scenario grid (a
 * FigureSpec axis list per table) and the emit function that runs one
 * grid point; execution, --jobs/--shard handling, and rendering are
 * the shared FigureBench machinery on runner::ScenarioPool.
 *
 * Definitions live in the sources under bench/figures/, inside the
 * canon_benchutil library -- not in the binaries -- so tests and
 * tools can build and run any figure in-process. The bench_* binaries
 * are thin mains:
 *
 *   int main(int argc, char **argv)
 *   { return canon::bench::figure12Bench().main(argc, argv); }
 */

#ifndef CANON_BENCH_FIGURES_HH
#define CANON_BENCH_FIGURES_HH

#include "figure_spec.hh"

namespace canon
{
namespace bench
{

FigureBench figure09Bench();  //!< area-delta feature ablation
FigureBench figure10Bench();  //!< area breakdowns + generality tax
FigureBench figure11Bench();  //!< PE power breakdown + FSM transitions
FigureBench figure12Bench();  //!< normalized performance matrix
FigureBench figure13Bench();  //!< normalized perf/W matrix
FigureBench figure14Bench();  //!< model-level EDP
FigureBench figure15Bench();  //!< scalability vs arithmetic intensity
FigureBench figure16Bench();  //!< bandwidth roofline requirements
FigureBench figure17Bench();  //!< scratchpad-depth sensitivity
FigureBench table1Bench();    //!< evaluated configuration
FigureBench adaptiveSpadBench(); //!< sparsity-aware depth ablation
FigureBench rowReorderBench();   //!< row-reorganization ablation
FigureBench simThroughputBench(); //!< simulator self-timing

} // namespace bench
} // namespace canon

#endif // CANON_BENCH_FIGURES_HH

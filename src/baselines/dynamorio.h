/**
 * @file
 * Binary-translation baseline (DynamoRIO-style, paper Figure 4).
 *
 * Models the cost structure of a translation-based dynamic compiler
 * executing a program from its code cache while making no code
 * modifications: a one-time translation cost per basic block, a
 * hash-lookup cost on every return, and a small residual cost on
 * every other taken transfer (branches and calls, an indirect call
 * through the EVT included).
 * Unlike protean code, all execution flows through the translator,
 * so these costs are paid on the application's critical path — the
 * source of the ~18% average overhead the paper measures.
 */

#ifndef PROTEAN_BASELINES_DYNAMORIO_H
#define PROTEAN_BASELINES_DYNAMORIO_H

#include "sim/machine.h"

namespace protean {
namespace baselines {

/** Default cost parameters for the translation baseline. */
sim::BtConfig defaultBtConfig();

/** Run the process bound to this core under binary translation. */
void enableBinaryTranslation(sim::Machine &machine, uint32_t core,
                             const sim::BtConfig &cfg);

/** Convenience overload with default costs. */
void enableBinaryTranslation(sim::Machine &machine, uint32_t core);

} // namespace baselines
} // namespace protean

#endif // PROTEAN_BASELINES_DYNAMORIO_H

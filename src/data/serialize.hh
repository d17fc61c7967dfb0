/**
 * @file
 * Flat binary checkpoints of a layer's tensors: its parameters and
 * state (kind 2, the bench cache of pre-trained backbones) and its
 * quantized serving state (kind 3).
 */

#ifndef LECA_DATA_SERIALIZE_HH
#define LECA_DATA_SERIALIZE_HH

#include <string>

namespace leca {

/**
 * Save a layer's parameters AND persistent state (e.g. batch-norm
 * running statistics) — required to reproduce evaluation-mode
 * behaviour after a reload.
 */
void saveLayerState(class Layer &layer, const std::string &path);

/** Load a layer's parameters and persistent state. */
bool loadLayerState(class Layer &layer, const std::string &path);

/**
 * Save a quantized serving checkpoint (format kind 3): the layer's
 * fp32 parameters and state exactly as saveLayerState writes them,
 * followed by every quantTensors() entry (int8 codes + fp32 block
 * scales; not-yet-converted entries round-trip as empty). A reload via
 * loadQuantizedState restores int8 serving bit-exactly without
 * re-running quantization.
 */
void saveQuantizedState(class Layer &layer, const std::string &path);

/**
 * Load a checkpoint saved by saveQuantizedState(). Returns false for
 * recoverable mismatches (missing file, stale version, different model
 * structure); throws CheckError on corruption, like loadLayerState.
 */
bool loadQuantizedState(class Layer &layer, const std::string &path);

} // namespace leca

#endif // LECA_DATA_SERIALIZE_HH

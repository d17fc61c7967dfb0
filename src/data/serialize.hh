/**
 * @file
 * Checkpoints of a layer's tensors, framed as one 'LcBs' container of
 * Raw sections (bitstream/container.hh, DESIGN.md §14), by section id:
 *
 *   0  u64 numel of every fp32 tensor: params() then state()
 *   1  those tensors' values, concatenated (fp32)
 *   2  kind 5 only: per quantTensors() entry, seven u64 words
 *      ndim | 4 dims (0 past ndim) | rows | cols (all 0 when empty)
 *   3  kind 5 only: the block scales, concatenated (fp32)
 *   4  kind 5 only: the int8 codes, concatenated
 *
 * Container kind 4 (kKindLayerState) holds the fp32 state: the bench
 * cache of pre-trained backbones and LecaPipeline::save. Kind 5
 * (kKindQuantState) adds the int8 serving state.
 *
 * Loaders return false, with a warning, when the checkpoint cannot be
 * used but is not damaged: a missing file, a file in the retired
 * 'LeCA' format or another container version, or a different model
 * structure. They throw CheckError when it is foreign, truncated,
 * corrupt, of the other kind, or holds a NaN or ±Inf value or a
 * negative scale. Either way the model is left untouched.
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

/** Load a checkpoint saved by saveLayerState(). */
bool loadLayerState(class Layer &layer, const std::string &path);

/**
 * Save a quantized serving checkpoint: the layer's fp32 parameters and
 * state as saveLayerState writes them, plus every quantTensors() entry
 * (not-yet-converted entries round-trip as empty). A reload via
 * loadQuantizedState restores int8 serving bit-exactly without
 * re-running quantization.
 */
void saveQuantizedState(class Layer &layer, const std::string &path);

/** Load a checkpoint saved by saveQuantizedState(). */
bool loadQuantizedState(class Layer &layer, const std::string &path);

} // namespace leca

#endif // LECA_DATA_SERIALIZE_HH

/**
 * @file
 * Generic mini-batch classifier training, evaluation and batch-norm
 * refresh loops over any Layer: they pre-train the backbone networks
 * and run every stage of the LeCA curriculum (core/trainer.hh) on the
 * whole pipeline. Also the double-buffered batch pipeline they run on.
 */

#ifndef LECA_DATA_TRAINLOOP_HH
#define LECA_DATA_TRAINLOOP_HH

#include <cstdint>
#include <vector>

#include "data/dataset.hh"
#include "nn/layer.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace leca {

/** Options for trainEpochs() and trainClassifier(). */
struct TrainOptions
{
    int epochs = 10;
    int batchSize = 32;
    double learningRate = 1e-3;
    int lrDecayEveryEpochs = 0;   //!< 0 = no decay; else x0.1 that often
    bool augment = false;         //!< random flip + rotation (Sec. 5.2)
    bool prefetch = true;         //!< overlap batch prep with compute
    std::uint64_t seed = 1234;
    /** When set, receives the mean loss of each epoch (appended). */
    std::vector<double> *epochLosses = nullptr;
};

/** Copy a [count] slice of a dataset starting at @p begin. */
Dataset sliceDataset(const Dataset &ds, int begin, int count);

/** Gather an index-selected batch (order[begin..begin+count)). */
Dataset gatherBatch(const Dataset &ds, const std::vector<int> &order,
                    int begin, int count);

/**
 * Double-buffered epoch executor: hands out gathered (and optionally
 * augmented) mini-batches in order, preparing batch b+1 on a background
 * thread (AsyncTask) while the caller computes on batch b.
 *
 * Determinism: every random draw a batch consumes comes from
 * @p augment_rngs — per-image streams pre-split per batch before the
 * pipeline starts — so batch contents are bit-identical with prefetch
 * on or off, at every LECA_THREADS setting. The background producer
 * runs serially (it is marked as a parallel region), leaving the global
 * pool to the foreground compute.
 *
 * Batches must be consumed strictly in ascending order, and the
 * reference returned by batch(b) is invalidated by the b+2nd call (two
 * slots, reused round-robin; their storage is recycled across batches,
 * so steady-state epochs allocate nothing per batch).
 */
class BatchPipeline
{
  public:
    /**
     * @param augment_rngs one vector of per-image streams per batch
     *        (empty = no augmentation).
     */
    BatchPipeline(const Dataset &ds, const std::vector<int> &order,
                  int batch_size, bool prefetch,
                  std::vector<std::vector<Rng>> augment_rngs = {},
                  double max_degrees = 20.0);

    int batchCount() const { return _batchCount; }

    /** Batch @p b; call with b = 0, 1, ... batchCount()-1 in order. */
    const Dataset &batch(int b);

  private:
    void produce(int b, Dataset &slot);

    const Dataset &_ds;
    const std::vector<int> &_order;
    int _batchSize;
    int _batchCount;
    bool _prefetch;
    double _maxDegrees;
    std::vector<std::vector<Rng>> _rngs;
    Dataset _slots[2];
    int _next = 0;  //!< next batch index to produce
    AsyncTask _task; //!< declared last: joins before the slots destruct
};

/**
 * Recompute the running statistics of every BatchNorm2d in @p net's
 * layer tree as the exact average over @p ds (forward-only pass in
 * training mode). Called after short trainings so evaluation matches
 * the final activations.
 */
void refreshBatchNormStats(Layer &net, const Dataset &ds,
                           int batch_size = 32);

/** Evaluation-mode top-1 accuracy of @p net on @p ds. */
double evalAccuracy(Layer &net, const Dataset &ds, int batch_size = 64);

/** Train @p net with Adam + cross entropy, shuffling every epoch. */
void trainEpochs(Layer &net, const Dataset &train,
                 const TrainOptions &options);

/**
 * trainEpochs(), then refresh the batch-norm statistics over @p train;
 * returns the final accuracy on @p val.
 */
double trainClassifier(Layer &net, const Dataset &train, const Dataset &val,
                       const TrainOptions &options);

} // namespace leca

#endif // LECA_DATA_TRAINLOOP_HH

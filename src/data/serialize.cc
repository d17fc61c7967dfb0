#include "serialize.hh"

#include <cstdint>
#include <fstream>
#include <utility>

#include "nn/layer.hh"
#include "tensor/quant.hh"
#include "util/check.hh"
#include "util/fnv1a.hh"
#include "util/logging.hh"

namespace leca {

namespace {

constexpr std::uint32_t kMagic = 0x4C654341;       // "LeCA"
constexpr std::uint32_t kLegacyLayerMagic = kMagic + 1;
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kKindLayerState = 2;
constexpr std::uint32_t kKindQuantState = 3;

/** Write @p count bytes, folding them into the checksum. */
void
writeHashed(std::ofstream &os, Fnv1a &hash, const void *bytes,
            std::size_t count)
{
    os.write(static_cast<const char *>(bytes),
             static_cast<std::streamsize>(count));
    hash.update(bytes, count);
}

/** Read @p count bytes into @p bytes; CheckError on truncation. */
void
readHashed(std::ifstream &is, Fnv1a &hash, void *bytes, std::size_t count,
           const std::string &path)
{
    is.read(static_cast<char *>(bytes),
            static_cast<std::streamsize>(count));
    LECA_CHECK(static_cast<std::size_t>(is.gcount()) == count && is,
               "corrupt checkpoint ", path, ": truncated");
    hash.update(bytes, count);
}

/**
 * Write a tensor list in the versioned format:
 *
 *   u32 magic 'LeCA' | u32 version | u32 kind | u32 count
 *   count x (u64 numel, numel x f32)
 *   u64 FNV-1a checksum over every byte after the magic word
 *
 * The trailing checksum lets loaders refuse truncated or bit-flipped
 * checkpoints instead of silently mis-inferring from them.
 */
void
saveTensors(const std::vector<const Tensor *> &tensors,
            const std::string &path, std::uint32_t kind)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open ", path, " for writing");
    Fnv1a hash;
    const std::uint32_t magic = kMagic;
    os.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    const std::uint32_t version = kVersion;
    const std::uint32_t count =
        static_cast<std::uint32_t>(tensors.size());
    writeHashed(os, hash, &version, sizeof(version));
    writeHashed(os, hash, &kind, sizeof(kind));
    writeHashed(os, hash, &count, sizeof(count));
    for (const Tensor *t : tensors) {
        const std::uint64_t numel = t->numel();
        writeHashed(os, hash, &numel, sizeof(numel));
        writeHashed(os, hash, t->data(), numel * sizeof(float));
    }
    const std::uint64_t digest = hash.digest();
    os.write(reinterpret_cast<const char *>(&digest), sizeof(digest));
}

/**
 * Load a tensor list saved by saveTensors().
 *
 * Returns false for recoverable "retrain instead" situations: missing
 * file, stale format version (including pre-versioning legacy files),
 * or a tensor count/shape that does not match the receiving model.
 * Throws CheckError for corruption — wrong kind, truncation, or a
 * checksum mismatch — so callers never quietly serve from a damaged
 * checkpoint.
 */
// leca-analyze: cold — checkpoint I/O
bool
loadTensors(const std::vector<Tensor *> &tensors, const std::string &path,
            std::uint32_t kind)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::uint32_t magic = 0;
    is.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    LECA_CHECK(is && is.gcount() == sizeof(magic), "corrupt checkpoint ",
               path, ": shorter than its magic word");
    LECA_CHECK(magic == kMagic || magic == kLegacyLayerMagic,
               "not a LeCA checkpoint: ", path);
    if (magic == kLegacyLayerMagic) {
        warn("stale pre-versioning checkpoint ", path, "; retraining");
        return false;
    }
    Fnv1a hash;
    std::uint32_t version = 0, file_kind = 0, count = 0;
    readHashed(is, hash, &version, sizeof(version), path);
    if (version != kVersion) {
        warn("stale checkpoint ", path, " (format v", version,
             ", expected v", kVersion, "); retraining");
        return false;
    }
    readHashed(is, hash, &file_kind, sizeof(file_kind), path);
    LECA_CHECK(file_kind == kind, "checkpoint ", path, " holds kind ",
               file_kind, ", expected kind ", kind,
               " (layer state=2)");
    readHashed(is, hash, &count, sizeof(count), path);
    if (count != tensors.size())
        return false; // different model structure: retrain
    // Two passes: verify the payload checksum fully before touching
    // any destination tensor, so a corrupt file cannot leave the model
    // half-overwritten.
    std::vector<std::vector<float>> staged;
    staged.reserve(tensors.size());
    for (const Tensor *t : tensors) {
        std::uint64_t numel = 0;
        readHashed(is, hash, &numel, sizeof(numel), path);
        if (numel != t->numel())
            return false; // shape mismatch: retrain
        std::vector<float> values(numel);
        readHashed(is, hash, values.data(), numel * sizeof(float), path);
        staged.push_back(std::move(values));
    }
    std::uint64_t stored = 0;
    is.read(reinterpret_cast<char *>(&stored), sizeof(stored));
    LECA_CHECK(is && is.gcount() == sizeof(stored), "corrupt checkpoint ",
               path, ": missing checksum");
    LECA_CHECK(stored == hash.digest(), "corrupt checkpoint ", path,
               ": checksum mismatch (stored ", stored, ", computed ",
               hash.digest(), ")");
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        float *dst = tensors[i]->data();
        const std::vector<float> &values = staged[i];
        for (std::size_t j = 0; j < values.size(); ++j)
            dst[j] = values[j];
    }
    return true;
}

/** Gather a layer's params and state as one flat tensor list. */
// leca-analyze: cold — checkpoint setup
std::vector<Tensor *>
allTensorsOf(Layer &layer)
{
    std::vector<Tensor *> tensors;
    for (Param *p : layer.params())
        tensors.push_back(&p->value);
    for (Tensor *t : layer.state())
        tensors.push_back(t);
    return tensors;
}

std::vector<const Tensor *>
constView(const std::vector<Tensor *> &tensors)
{
    return {tensors.begin(), tensors.end()};
}

} // namespace

void
saveLayerState(Layer &layer, const std::string &path)
{
    saveTensors(constView(allTensorsOf(layer)), path, kKindLayerState);
}

bool
loadLayerState(Layer &layer, const std::string &path)
{
    return loadTensors(allTensorsOf(layer), path, kKindLayerState);
}

/*
 * Kind-3 layout, after the shared header (magic | version | kind):
 *
 *   u32 fcount | fcount x (u64 numel, numel x f32)      — as kind 2
 *   u32 qcount | qcount x quantized tensor
 *   u64 FNV-1a checksum over every byte after the magic word
 *
 * One quantized tensor:
 *   u32 ndim | ndim x i32 dims | u64 rows | u64 cols
 *   rows*quantBlocks(cols) x f32 scales
 *   rows*quantBlocks(cols)*32 x i8 codes
 * A not-yet-converted entry serializes as ndim = 0, rows = cols = 0
 * with no payload (e.g. the encoder slot in hard modality).
 */
void
saveQuantizedState(Layer &layer, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open ", path, " for writing");
    Fnv1a hash;
    const std::uint32_t magic = kMagic;
    os.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    const std::uint32_t version = kVersion;
    const std::uint32_t kind = kKindQuantState;
    writeHashed(os, hash, &version, sizeof(version));
    writeHashed(os, hash, &kind, sizeof(kind));

    const std::vector<Tensor *> tensors = allTensorsOf(layer);
    const std::uint32_t fcount =
        static_cast<std::uint32_t>(tensors.size());
    writeHashed(os, hash, &fcount, sizeof(fcount));
    for (const Tensor *t : tensors) {
        const std::uint64_t numel = t->numel();
        writeHashed(os, hash, &numel, sizeof(numel));
        writeHashed(os, hash, t->data(), numel * sizeof(float));
    }

    const std::vector<QuantTensor *> qts = layer.quantTensors();
    const std::uint32_t qcount = static_cast<std::uint32_t>(qts.size());
    writeHashed(os, hash, &qcount, sizeof(qcount));
    for (const QuantTensor *qt : qts) {
        const std::uint32_t ndim =
            qt->empty() ? 0u
                        : static_cast<std::uint32_t>(qt->shape.size());
        writeHashed(os, hash, &ndim, sizeof(ndim));
        for (std::uint32_t d = 0; d < ndim; ++d) {
            const std::int32_t extent = qt->shape[d];
            writeHashed(os, hash, &extent, sizeof(extent));
        }
        const std::uint64_t rows = qt->empty() ? 0 : qt->rows;
        const std::uint64_t cols = qt->empty() ? 0 : qt->cols;
        writeHashed(os, hash, &rows, sizeof(rows));
        writeHashed(os, hash, &cols, sizeof(cols));
        if (qt->empty())
            continue;
        writeHashed(os, hash, qt->scales.data(),
                    qt->scales.size() * sizeof(float));
        writeHashed(os, hash, qt->q.data(), qt->q.size());
    }
    const std::uint64_t digest = hash.digest();
    os.write(reinterpret_cast<const char *>(&digest), sizeof(digest));
}

// leca-analyze: cold — checkpoint I/O
bool
loadQuantizedState(Layer &layer, const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    const std::uint64_t file_bytes = static_cast<std::uint64_t>(is.tellg());
    is.seekg(0);
    std::uint32_t magic = 0;
    is.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    LECA_CHECK(is && is.gcount() == sizeof(magic), "corrupt checkpoint ",
               path, ": shorter than its magic word");
    LECA_CHECK(magic == kMagic, "not a LeCA checkpoint: ", path);
    Fnv1a hash;
    std::uint32_t version = 0, file_kind = 0;
    readHashed(is, hash, &version, sizeof(version), path);
    if (version != kVersion) {
        warn("stale checkpoint ", path, " (format v", version,
             ", expected v", kVersion, "); requantizing");
        return false;
    }
    readHashed(is, hash, &file_kind, sizeof(file_kind), path);
    LECA_CHECK(file_kind == kKindQuantState, "checkpoint ", path,
               " holds kind ", file_kind, ", expected kind ",
               kKindQuantState, " (quantized state)");

    const std::vector<Tensor *> tensors = allTensorsOf(layer);
    std::uint32_t fcount = 0;
    readHashed(is, hash, &fcount, sizeof(fcount), path);
    if (fcount != tensors.size())
        return false; // different model structure
    // Two passes, like loadTensors: stage everything and verify the
    // checksum before committing a single byte to the model.
    std::vector<std::vector<float>> staged;
    staged.reserve(tensors.size());
    for (const Tensor *t : tensors) {
        std::uint64_t numel = 0;
        readHashed(is, hash, &numel, sizeof(numel), path);
        if (numel != t->numel())
            return false; // shape mismatch
        std::vector<float> values(numel);
        readHashed(is, hash, values.data(), numel * sizeof(float), path);
        staged.push_back(std::move(values));
    }

    const std::vector<QuantTensor *> qts = layer.quantTensors();
    std::uint32_t qcount = 0;
    readHashed(is, hash, &qcount, sizeof(qcount), path);
    if (qcount != qts.size())
        return false; // different model structure
    std::vector<QuantTensor> staged_q(qts.size());
    for (QuantTensor &qt : staged_q) {
        std::uint32_t ndim = 0;
        readHashed(is, hash, &ndim, sizeof(ndim), path);
        LECA_CHECK(ndim <= 4, "corrupt checkpoint ", path,
                   ": quantized tensor rank ", ndim);
        qt.shape.resize(ndim);
        for (std::uint32_t d = 0; d < ndim; ++d) {
            std::int32_t extent = 0;
            readHashed(is, hash, &extent, sizeof(extent), path);
            qt.shape[d] = extent;
        }
        std::uint64_t rows = 0, cols = 0;
        readHashed(is, hash, &rows, sizeof(rows), path);
        readHashed(is, hash, &cols, sizeof(cols), path);
        if (ndim == 0) {
            LECA_CHECK(rows == 0 && cols == 0, "corrupt checkpoint ", path,
                       ": empty quantized tensor claims ", rows, "x", cols);
            continue; // empty slot round-trips as empty
        }
        // The checksum is only verified at the end, so bound the header
        // by the bytes left in the file before sizing anything from it:
        // a flipped bit here must not turn into a huge allocation.
        const std::uint64_t left =
            file_bytes - static_cast<std::uint64_t>(is.tellg());
        std::uint64_t numel = 1;
        for (const int extent : qt.shape) {
            LECA_CHECK(extent > 0
                           && static_cast<std::uint64_t>(extent)
                                  <= left / numel,
                       "corrupt checkpoint ", path,
                       ": quantized tensor dim ", extent);
            numel *= static_cast<std::uint64_t>(extent);
        }
        LECA_CHECK(rows > 0 && numel % rows == 0 && numel / rows == cols,
                   "corrupt checkpoint ", path, ": quantized tensor view ",
                   rows, "x", cols, " does not cover its ", numel,
                   " elements");
        const std::uint64_t need =
            rows * static_cast<std::uint64_t>(quantBlocks(
                       static_cast<std::int64_t>(cols)))
            * (kQuantBlock + sizeof(float));
        LECA_CHECK(need <= left, "corrupt checkpoint ", path,
                   ": quantized tensor needs ", need, " bytes, ", left,
                   " left");
        qt.rows = static_cast<std::int64_t>(rows);
        qt.cols = static_cast<std::int64_t>(cols);
        qt.nb = quantBlocks(qt.cols);
        qt.scales.resize(static_cast<std::size_t>(qt.rows * qt.nb));
        qt.q.resize(
            static_cast<std::size_t>(qt.rows * qt.nb * kQuantBlock));
        readHashed(is, hash, qt.scales.data(),
                   qt.scales.size() * sizeof(float), path);
        readHashed(is, hash, qt.q.data(), qt.q.size(), path);
    }
    std::uint64_t stored = 0;
    is.read(reinterpret_cast<char *>(&stored), sizeof(stored));
    LECA_CHECK(is && is.gcount() == sizeof(stored), "corrupt checkpoint ",
               path, ": missing checksum");
    LECA_CHECK(stored == hash.digest(), "corrupt checkpoint ", path,
               ": checksum mismatch (stored ", stored, ", computed ",
               hash.digest(), ")");
    for (std::size_t i = 0; i < tensors.size(); ++i) {
        float *dst = tensors[i]->data();
        const std::vector<float> &values = staged[i];
        for (std::size_t j = 0; j < values.size(); ++j)
            dst[j] = values[j];
    }
    for (std::size_t i = 0; i < qts.size(); ++i)
        *qts[i] = std::move(staged_q[i]);
    return true;
}

} // namespace leca

/**
 * @file
 * Tests for the sensor front-end: voltage mapping, Bayer mosaicing,
 * noise statistics, and rolling-shutter row readout.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sensor/bayer.hh"
#include "sensor/noise.hh"
#include "sensor/pixel_array.hh"
#include "sensor/sensor_config.hh"
#include "util/check.hh"
#include "util/rng.hh"

namespace leca {
namespace {

TEST(SensorConfig, VoltageMappingRoundTrip)
{
    SensorConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.digitalToVoltage(0.0), cfg.vMin);
    EXPECT_DOUBLE_EQ(cfg.digitalToVoltage(1.0), cfg.vMax);
    for (double x : {0.0, 0.25, 0.5, 0.99}) {
        EXPECT_NEAR(cfg.voltageToDigital(cfg.digitalToVoltage(x)), x,
                    1e-12);
    }
}

TEST(Bayer, PatternIsRggb)
{
    // One pixel with distinct R, G, B lands on the R G / G B sites.
    Tensor rgb({3, 1, 1});
    rgb.at(0, 0, 0) = 0.1f;
    rgb.at(1, 0, 0) = 0.2f;
    rgb.at(2, 0, 0) = 0.3f;
    const Tensor raw = mosaic(rgb);
    EXPECT_FLOAT_EQ(raw.at(0, 0), 0.1f);
    EXPECT_FLOAT_EQ(raw.at(0, 1), 0.2f);
    EXPECT_FLOAT_EQ(raw.at(1, 0), 0.2f);
    EXPECT_FLOAT_EQ(raw.at(1, 1), 0.3f);
}

TEST(Bayer, MosaicDoublesGeometry)
{
    Tensor rgb({3, 4, 5});
    Tensor raw = mosaic(rgb);
    EXPECT_EQ(raw.shape(), (std::vector<int>{8, 10}));
}

TEST(Bayer, MosaicCollapseRoundTrip)
{
    Rng rng(3);
    Tensor rgb({3, 6, 6});
    for (std::size_t i = 0; i < rgb.numel(); ++i)
        rgb[i] = static_cast<float>(rng.uniform());
    // Collapsing each RGGB cell (R, the mean of its two greens, B)
    // recovers the image.
    const Tensor raw = mosaic(rgb);
    ASSERT_EQ(raw.shape(), (std::vector<int>{12, 12}));
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 6; ++x) {
            EXPECT_NEAR(raw.at(2 * y, 2 * x), rgb.at(0, y, x), 1e-6f);
            EXPECT_NEAR(0.5f * (raw.at(2 * y, 2 * x + 1)
                                + raw.at(2 * y + 1, 2 * x)),
                        rgb.at(1, y, x), 1e-6f);
            EXPECT_NEAR(raw.at(2 * y + 1, 2 * x + 1), rgb.at(2, y, x),
                        1e-6f);
        }
}

TEST(Bayer, GreenIsDuplicated)
{
    Tensor rgb({3, 2, 2});
    rgb.at(1, 0, 0) = 0.7f;
    const Tensor raw = mosaic(rgb);
    EXPECT_FLOAT_EQ(raw.at(0, 1), 0.7f);
    EXPECT_FLOAT_EQ(raw.at(1, 0), 0.7f);
}

TEST(Noise, ZeroIntensityStaysNearZero)
{
    SensorConfig cfg;
    PixelNoiseModel noise(cfg);
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const float v = noise.sampleIntensity(0.0f, rng);
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 0.01f);
    }
}

TEST(Noise, MeanPreserved)
{
    SensorConfig cfg;
    PixelNoiseModel noise(cfg);
    Rng rng(7);
    const float x = 0.4f;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += noise.sampleIntensity(x, rng);
    EXPECT_NEAR(sum / n, x, 0.002);
}

TEST(Noise, VarianceMatchesShotNoise)
{
    SensorConfig cfg;
    PixelNoiseModel noise(cfg);
    Rng rng(11);
    const float x = 0.5f;
    // Poisson shot noise: sqrt(electrons), in full-well units.
    const double full = cfg.fullWellElectrons;
    const double expected_sigma = std::sqrt(x * full) / full;
    double sum = 0.0, sq = 0.0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        const double v = noise.sampleIntensity(x, rng);
        sum += v;
        sq += v * v;
    }
    const double var = sq / n - (sum / n) * (sum / n);
    EXPECT_NEAR(std::sqrt(var), expected_sigma, expected_sigma * 0.1);
}

TEST(Noise, BrighterPixelsNoisier)
{
    SensorConfig cfg;
    PixelNoiseModel noise(cfg);
    const auto sigma = [&](float x) {
        Rng rng(13);
        double sum = 0.0, sq = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            const double v = noise.sampleIntensity(x, rng);
            sum += v;
            sq += v * v;
        }
        return std::sqrt(sq / n - (sum / n) * (sum / n));
    };
    EXPECT_GT(sigma(0.9f), sigma(0.1f));
}

TEST(PixelArray, ExposeAndReadRow)
{
    SensorConfig cfg;
    PixelArray array(cfg, 4, 6);
    Tensor scene = Tensor::full({4, 6}, 0.5f);
    Rng rng(13);
    array.expose(scene, rng, /*noisy=*/false);
    const auto row = array.readRowVoltages(2);
    ASSERT_EQ(row.size(), 6u);
    for (double v : row)
        EXPECT_NEAR(v, cfg.digitalToVoltage(0.5), 1e-6);
}

TEST(PixelArray, NoisyExposureDiffersFromScene)
{
    SensorConfig cfg;
    PixelArray array(cfg, 8, 8);
    Tensor scene = Tensor::full({8, 8}, 0.5f);
    Rng rng(17);
    array.expose(scene, rng, /*noisy=*/true);
    double diff = 0.0;
    for (std::size_t i = 0; i < scene.numel(); ++i)
        diff += std::abs(array.frame()[i] - scene[i]);
    EXPECT_GT(diff, 0.0);
    // ... but only slightly (shot noise at half well is small).
    EXPECT_LT(diff / scene.numel(), 0.05);
}

TEST(PixelArray, RejectsWrongSceneShape)
{
    SensorConfig cfg;
    PixelArray array(cfg, 4, 4);
    Rng rng(19);
    Tensor bad({4, 5});
    try {
        array.expose(bad, rng);
        FAIL() << "expected CheckError";
    } catch (const CheckError &err) {
        EXPECT_NE(std::string(err.what()).find("scene shape"),
                  std::string::npos);
    }
}

} // namespace
} // namespace leca

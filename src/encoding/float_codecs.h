// Payload-level floating-point codecs (double domain). float32 columns
// are widened to double (exact) by the format layer before entering
// this domain; quantized fp16/bf16/fp8 columns travel through the int
// domain as bit patterns instead.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace bullion {

class CascadeContext;

namespace floatcodec {

// Decoders write exactly `n` values to caller storage at `out`.

// kTrivial: raw IEEE754 bytes.
Status EncodeTrivial(std::span<const double> v, BufferBuilder* out);
Status DecodeTrivialInto(SliceReader* in, size_t n, double* out);

// kGorilla: XOR-with-previous, leading/trailing-zero windows
// (Facebook Gorilla §4.1 layout: '0' identical, '10' reuse window,
// '11' new window with 5-bit leading count + 6-bit length).
Status EncodeGorilla(std::span<const double> v, BufferBuilder* out);
Status DecodeGorillaInto(SliceReader* in, size_t n, double* out);

// kChimp: Chimp-style variant: leading-zero counts quantized to a
// 3-bit table, flag scheme favouring short significands.
Status EncodeChimp(std::span<const double> v, BufferBuilder* out);
Status DecodeChimpInto(SliceReader* in, size_t n, double* out);

// kPseudodecimal: per value, decimal (mantissa, exponent) split with
// raw-double exceptions (BtrBlocks-style).
Status EncodePseudodecimal(std::span<const double> v, BufferBuilder* out);
Status DecodePseudodecimalInto(SliceReader* in, size_t n, double* out);

// kAlp: column-level best decimal exponent; mantissas as an int child
// block, exceptions patched (ALP-style "enhanced pseudodecimal").
Status EncodeAlp(std::span<const double> v, CascadeContext* ctx,
                 BufferBuilder* out);
Status DecodeAlpInto(SliceReader* in, size_t n, double* out);

// kChunked: deflate of the raw bytes.
Status EncodeChunked(std::span<const double> v, BufferBuilder* out);
Status DecodeChunkedInto(SliceReader* in, size_t n, double* out);

// kBitShuffle: bit-plane transpose + deflate (same transform as the int
// domain, applied to the IEEE754 bit patterns).
Status EncodeBitShuffle(std::span<const double> v, BufferBuilder* out);
Status DecodeBitShuffleInto(SliceReader* in, size_t n, double* out);

/// Finds the best decimal exponent for ALP on a sample; returns the
/// fraction of values that round-trip at that exponent.
double ProbeDecimalExponent(std::span<const double> v, int* best_exponent);

}  // namespace floatcodec
}  // namespace bullion

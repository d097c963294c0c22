#include "fountain/codec.h"

#include <cstring>
#include <utility>

#include "fountain/random_linear.h"
#include "obs/trace/span.h"

namespace fmtcp::fountain {

const char* coding_field_name(CodingField field) {
  return field == CodingField::kGf2 ? "gf2" : "gf256";
}

std::optional<CodingField> parse_coding_field(const char* name) {
  if (std::strcmp(name, "gf2") == 0) return CodingField::kGf2;
  if (std::strcmp(name, "gf256") == 0) return CodingField::kGf256;
  return std::nullopt;
}

SymbolEncoder::SymbolEncoder(CodingField field, std::uint64_t block_id,
                             BlockData block, Rng rng, bool systematic,
                             BufferPool* pool)
    : field_(field),
      block_id_(block_id),
      block_(std::move(block)),
      rng_(rng),
      systematic_(systematic),
      pool_(pool) {}

net::EncodedSymbol SymbolEncoder::next_symbol() {
  FMTCP_COUNT("codec.encode_symbol", 1);
  const std::uint32_t k = block_.symbols();
  net::EncodedSymbol s;
  s.block = block_id_;
  s.block_symbols = k;
  if (pool_ != nullptr) s.data = pool_->acquire(block_.symbol_bytes());
  if (systematic_ && generated_ < k) {
    s.systematic_index = static_cast<std::uint32_t>(generated_);
    const std::uint8_t* src = block_.symbol(s.systematic_index);
    s.data.assign(src, src + block_.symbol_bytes());
  } else {
    s.coeff_seed = rng_.next_u64();
    if (field_ == CodingField::kGf2) {
      coefficients_from_seed_into(s.coeff_seed, k, gf2_coeffs_);
      encode_with_coefficients_into(block_, gf2_coeffs_, s.data);
    } else {
      gf256_coefficients_from_seed_into(s.coeff_seed, k, gf256_coeffs_);
      gf256_encode_with_coefficients_into(block_, gf256_coeffs_.data(),
                                          s.data);
    }
  }
  ++generated_;
  return s;
}

SymbolDecoder::SymbolDecoder(CodingField field, std::uint32_t symbols,
                             std::size_t symbol_bytes, BufferPool* pool)
    : impl_(field == CodingField::kGf256
                ? decltype(impl_)(std::in_place_type<Gf256RlcDecoder>,
                                  symbols, symbol_bytes, pool)
                : decltype(impl_)(std::in_place_type<BlockDecoder>, symbols,
                                  symbol_bytes, pool)) {}

bool SymbolDecoder::add_symbol(net::EncodedSymbol&& symbol) {
  return std::visit(
      [&symbol](auto& d) { return d.add_symbol(std::move(symbol)); }, impl_);
}

bool SymbolDecoder::add_symbol(const net::EncodedSymbol& symbol) {
  return std::visit([&symbol](auto& d) { return d.add_symbol(symbol); },
                    impl_);
}

std::uint32_t SymbolDecoder::rank() const {
  return std::visit([](const auto& d) { return d.rank(); }, impl_);
}

bool SymbolDecoder::complete() const {
  return std::visit([](const auto& d) { return d.complete(); }, impl_);
}

std::uint32_t SymbolDecoder::symbols() const {
  return std::visit([](const auto& d) { return d.symbols(); }, impl_);
}

std::size_t SymbolDecoder::symbol_bytes() const {
  return std::visit([](const auto& d) { return d.symbol_bytes(); }, impl_);
}

std::uint64_t SymbolDecoder::received_count() const {
  return std::visit([](const auto& d) { return d.received_count(); }, impl_);
}

std::uint64_t SymbolDecoder::redundant_count() const {
  return std::visit([](const auto& d) { return d.redundant_count(); }, impl_);
}

const BlockData& SymbolDecoder::decode(DecodeScratch& scratch) {
  if (auto* gf2 = std::get_if<BlockDecoder>(&impl_)) {
    return gf2->decode(scratch);
  }
  return std::get<Gf256RlcDecoder>(impl_).decode();
}

const BlockData& SymbolDecoder::decode() {
  return std::visit([](auto& d) -> const BlockData& { return d.decode(); },
                    impl_);
}

std::uint64_t SymbolDecoder::payload_bytes() const {
  if (const auto* gf2 = std::get_if<BlockDecoder>(&impl_)) {
    return gf2->payload_bytes_xored();
  }
  return std::get<Gf256RlcDecoder>(impl_).payload_bytes_multiplied();
}

std::uint64_t SymbolDecoder::coeff_work() const {
  if (const auto* gf2 = std::get_if<BlockDecoder>(&impl_)) {
    return gf2->coeff_word_xors();
  }
  return std::get<Gf256RlcDecoder>(impl_).coeff_bytes_eliminated();
}

std::uint64_t SymbolDecoder::rows_composed() const {
  return std::visit([](const auto& d) { return d.rows_composed(); }, impl_);
}

}  // namespace fmtcp::fountain

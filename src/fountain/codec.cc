#include "fountain/codec.h"

#include <cstring>
#include <utility>

namespace fmtcp::fountain {

const char* coding_field_name(CodingField field) {
  return field == CodingField::kGf2 ? "gf2" : "gf256";
}

std::optional<CodingField> parse_coding_field(const char* name) {
  if (std::strcmp(name, "gf2") == 0) return CodingField::kGf2;
  if (std::strcmp(name, "gf256") == 0) return CodingField::kGf256;
  return std::nullopt;
}

namespace {

template <typename Gf2, typename Gf256, typename... Args>
std::variant<Gf2, Gf256> make_codec(CodingField field, Args&&... args) {
  if (field == CodingField::kGf256) {
    return std::variant<Gf2, Gf256>(std::in_place_type<Gf256>,
                                    std::forward<Args>(args)...);
  }
  return std::variant<Gf2, Gf256>(std::in_place_type<Gf2>,
                                  std::forward<Args>(args)...);
}

}  // namespace

SymbolEncoder::SymbolEncoder(CodingField field, std::uint64_t block_id,
                             BlockData block, Rng rng, bool systematic)
    : impl_(make_codec<RandomLinearEncoder, Gf256RlcEncoder>(
          field, block_id, std::move(block), rng, systematic)) {}

SymbolEncoder::SymbolEncoder(CodingField field, std::uint64_t block_id,
                             std::uint32_t symbols, std::size_t symbol_bytes,
                             Rng rng, bool systematic)
    : impl_(make_codec<RandomLinearEncoder, Gf256RlcEncoder>(
          field, block_id, symbols, symbol_bytes, rng, systematic)) {}

net::EncodedSymbol SymbolEncoder::next_symbol() {
  return std::visit([](auto& e) { return e.next_symbol(); }, impl_);
}

void SymbolEncoder::set_buffer_pool(BufferPool* pool) {
  std::visit([pool](auto& e) { e.set_buffer_pool(pool); }, impl_);
}

bool SymbolEncoder::systematic() const {
  return std::visit([](const auto& e) { return e.systematic(); }, impl_);
}

std::uint64_t SymbolEncoder::block_id() const {
  return std::visit([](const auto& e) { return e.block_id(); }, impl_);
}

std::uint32_t SymbolEncoder::symbols() const {
  return std::visit([](const auto& e) { return e.symbols(); }, impl_);
}

std::size_t SymbolEncoder::symbol_bytes() const {
  return std::visit([](const auto& e) { return e.symbol_bytes(); }, impl_);
}

std::uint64_t SymbolEncoder::generated_count() const {
  return std::visit([](const auto& e) { return e.generated_count(); }, impl_);
}

SymbolDecoder::SymbolDecoder(CodingField field, std::uint32_t symbols,
                             std::size_t symbol_bytes, bool track_data,
                             BufferPool* pool)
    : impl_(make_codec<BlockDecoder, Gf256RlcDecoder>(
          field, symbols, symbol_bytes, track_data, pool)) {}

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

std::size_t SymbolDecoder::buffered_bytes() const {
  return std::visit([](const auto& d) { return d.buffered_bytes(); }, impl_);
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

#include "cache/synonym.hh"

namespace rcnvm::cache {

Crossing
SynonymMapper::crossingOfWord(const LineKey &key,
                              unsigned word_index) const
{
    // Decode the word's location, then express it in the other
    // orientation and align to that orientation's line.
    const Addr word_addr = key.addr + Addr{word_index} * 8;
    mem::DecodedAddr d = map_->decode(word_addr, key.orient);
    d.offset = 0;

    const Orientation other = flip(key.orient);
    const Addr other_word = map_->encode(d, other);
    const Addr other_line = other_word & ~Addr{63};

    Crossing c;
    c.partner = LineKey{other_line, other};
    c.selfWord = word_index;
    c.partnerWord = static_cast<unsigned>((other_word - other_line) / 8);
    return c;
}

std::array<Crossing, SynonymMapper::wordsPerLine>
SynonymMapper::crossings(const LineKey &key) const
{
    // A line's eight words differ only in its faster-varying field,
    // which is the partners' slower-varying one: partner w lies w
    // steps of that field past partner 0. A row line's partners are
    // columns, one physical column (columnBytes) apart; a column
    // line's are rows, one physical row (rowBytes) apart.
    const mem::Geometry &g = map_->geometry();
    const Addr step =
        key.orient == Orientation::Row ? g.columnBytes() : g.rowBytes();
    std::array<Crossing, wordsPerLine> out;
    out[0] = crossingOfWord(key, 0);
    for (unsigned w = 1; w < wordsPerLine; ++w) {
        out[w] = out[0];
        out[w].partner.addr += step * w;
        out[w].selfWord = w;
    }
    return out;
}

} // namespace rcnvm::cache

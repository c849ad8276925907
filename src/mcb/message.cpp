#include "mcb/message.hpp"

#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace mcb {

Message::Message(std::initializer_list<Word> words) {
  MCB_REQUIRE(words.size() <= kMaxWords,
              "message of " << words.size() << " words exceeds the O(log "
                            << "beta)-bit model limit of " << kMaxWords);
  for (Word w : words) words_[size_++] = w;
}

void Message::throw_bad_index(std::size_t i) const {
  std::ostringstream msg;
  msg << "word index " << i << " out of range (size " << size_ << ")";
  detail::throw_require("i < size_", __FILE__, __LINE__, msg.str());
}

void Message::throw_full() {
  std::ostringstream msg;
  msg << "message already holds " << kMaxWords << " words";
  detail::throw_require("size_ < kMaxWords", __FILE__, __LINE__, msg.str());
}

std::ostream& operator<<(std::ostream& os, const Message& m) {
  os << '[';
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) os << ' ';
    os << m.at(i);
  }
  return os << ']';
}

}  // namespace mcb

package repro.select

/** A binary max-heap of vertex ids, ordered by [[Key.better]] on
  * (key(v), v) over a caller-owned key array: the one priority structure
  * of the lazy greedies (CELF's Alg. 2, P-tree's Alg. 4 and RIS max
  * coverage). It starts with every id in 0 until key.length. The caller
  * may push only an id that is out of the heap, and may change key(v)
  * only while v is out of it.
  *
  * Alg. 4's SplitTop(b) is up to b `pop`s, BatchInsert is `push`es and
  * Max is `top`: O(log n) each, below the cost of one Marginal.
  */
final class IdHeap(key: Array[Long]) {
  private val ids = Array.tabulate(key.length)(identity)
  private var n = key.length

  // Bottom-up build: O(n).
  locally {
    var i = n / 2 - 1
    while (i >= 0) { siftDown(ids(i), i); i -= 1 }
  }

  def size: Int = n

  /** The best id; the heap must not be empty. */
  def top: Int = {
    require(n > 0, "top of an empty heap")
    ids(0)
  }

  /** Removes and returns the best id; the heap must not be empty. */
  def pop(): Int = {
    val best = top
    n -= 1
    if (n > 0) siftDown(ids(n), 0)
    best
  }

  def push(v: Int): Unit = {
    var i = n
    n += 1
    while (i > 0 && better(v, ids((i - 1) / 2))) {
      ids(i) = ids((i - 1) / 2)
      i = (i - 1) / 2
    }
    ids(i) = v
  }

  @inline private def better(a: Int, b: Int): Boolean = Key.better(key(a), a, key(b), b)

  /** Places v at slot `from` or below, moving better children up. */
  private def siftDown(v: Int, from: Int): Unit = {
    var i = from
    var c = 2 * i + 1
    while (c < n) {
      if (c + 1 < n && better(ids(c + 1), ids(c))) c += 1
      if (better(ids(c), v)) {
        ids(i) = ids(c)
        i = c
        c = 2 * i + 1
      } else c = n
    }
    ids(i) = v
  }
}

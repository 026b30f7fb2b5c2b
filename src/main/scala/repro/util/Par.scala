package repro.util

import java.util.concurrent.{ForkJoinPool, ForkJoinWorkerThread}
import java.util.stream.IntStream

/** Shared-memory fork-join helpers.
  *
  * The paper's algorithms are written for the fork-join model (ParlayLib).
  * On the JVM the common ForkJoinPool plays that role: `parFor` is the
  * "ParallelForEach" of Alg. 1/3/4, and `WinTreeSelector` forks recursive
  * tasks directly. Spark remains the dataflow layer; this is the
  * shared-memory layer the paper's data structures require.
  */
object Par {

  /** Parallel for over [0, n) on the common ForkJoin pool. */
  def parFor(n: Int)(body: Int => Unit): Unit =
    IntStream.range(0, n).parallel().forEach(i => body(i))

  /** Parallel map over [0, n) into a fresh array. */
  def parTabulate[T: reflect.ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    parFor(n)(i => out(i) = f(i))
    out
  }

  /** Threads a parallel loop can run on: the common pool's workers plus
    * the calling thread, which joins in.
    */
  def threads: Int = ForkJoinPool.getCommonPoolParallelism + 1

  /** Parallel map over `pieces` contiguous ranges that split [0, n) as
    * evenly as possible: `body(lo, hi)` covers [lo, hi), and the results
    * come back in range order. For loops that keep per-range state (a
    * partial sum array, a scratch) and merge it once, instead of writing
    * shared state per index.
    */
  def parRanges[T: reflect.ClassTag](n: Int, pieces: Int)(body: (Int, Int) => T): Array[T] =
    parTabulate(pieces)(c => body(cut(n, pieces, c), cut(n, pieces, c + 1)))

  /** Where range c starts when [0, n) is split into `pieces` contiguous
    * ranges as evenly as possible; c = pieces gives n.
    */
  def cut(n: Int, pieces: Int, c: Int): Int = (n.toLong * c / pieces).toInt
}

/** Reusable, allocation-free BFS scratch: a stamp-versioned visited array
  * plus an int queue, sized for vertex ids below `n`. One instance per
  * thread (see [[Scratch.local]]); `reset()` is O(1) by bumping the
  * version stamp. `visits` and `draws` are running tallies that a BFS may
  * add its visited vertices and its sampled-arc draws to, so that a caller
  * can total many searches without a shared counter write per search;
  * `reset()` leaves them alone.
  *
  * `seen` and `pending` are per-vertex 64-bit masks for a BFS that runs
  * up to 64 searches at once (`InfluenceEval.simulateBlock`). They are
  * allocated on first use, so a thread that only runs single searches
  * (GetCenter, MarkSeed, RR sets) never holds their 16n bytes.
  *
  * Rejects n outside [0, Int.MaxValue), as `CSRGraph` does, before
  * allocating anything.
  */
final class Scratch(val n: Int) {
  require(n >= 0 && n < Int.MaxValue, s"n=$n out of [0, Int.MaxValue)")
  private val stamp = new Array[Int](n)
  private var version = 0
  val queue = new Array[Int](n)
  var visits: Long = 0L
  var draws: Long = 0L
  lazy val seen: Array[Long] = new Array[Long](n)
  lazy val pending: Array[Long] = new Array[Long](n)

  def reset(): Unit = {
    version += 1
    if (version == Int.MaxValue) { java.util.Arrays.fill(stamp, 0); version = 1 }
  }
  @inline def visited(v: Int): Boolean = stamp(v) == version
  @inline def visit(v: Int): Unit = stamp(v) = version
}

object Scratch {
  // One instance per thread, replaced only by a larger one: a scratch of
  // size n serves every graph with at most n vertices, so a long-lived
  // thread holds 8·max(n) bytes (24·max(n) once it has run a Monte-Carlo
  // block), not that much for every n it has seen.
  //
  // Common-pool workers erase their ThreadLocals after each top-level task,
  // so a ThreadLocal would hand them a new 8n-byte scratch for nearly every
  // parallel task. They keep theirs in `workers`, indexed by pool index
  // (an index belongs to one live worker at a time); other threads use
  // `pool`. Only a worker writes its own slot, under the lock that also
  // guards growing the array, so a copy never drops a slot.
  private val pool = new ThreadLocal[Scratch]
  @volatile private var workers = new Array[Scratch](0)

  /** This thread's scratch for graphs with at most n vertices. */
  def local(n: Int): Scratch = Thread.currentThread() match {
    case w: ForkJoinWorkerThread if w.getPool eq ForkJoinPool.commonPool() =>
      val i = w.getPoolIndex
      val ws = workers
      val s = if (i < ws.length) ws(i) else null
      if (s != null && s.n >= n) s else setWorker(i, new Scratch(n))
    case _ =>
      val s = pool.get()
      if (s != null && s.n >= n) s
      else { val t = new Scratch(n); pool.set(t); t }
  }

  private def setWorker(i: Int, s: Scratch): Scratch = synchronized {
    if (i >= workers.length) workers = java.util.Arrays.copyOf(workers, math.max(i + 1, 2 * workers.length))
    workers(i) = s
    s
  }
}

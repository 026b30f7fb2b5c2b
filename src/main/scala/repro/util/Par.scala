package repro.util

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

  /** Parallel sum of a per-index Long function. */
  def parSumL(n: Int)(f: Int => Long): Long = {
    val acc = new java.util.concurrent.atomic.LongAdder
    parFor(n)(i => acc.add(f(i)))
    acc.sum()
  }
}

/** Reusable, allocation-free BFS scratch: a stamp-versioned visited array
  * plus an int queue, sized for vertex ids below `n`. One instance per
  * thread (see [[Scratch.local]]); `reset()` is O(1) by bumping the
  * version stamp.
  */
final class Scratch(val n: Int) {
  private val stamp = new Array[Int](n)
  private var version = 0
  val queue = new Array[Int](n)

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
  // thread holds 8·max(n) bytes, not 8n for every n it has seen.
  private val pool = new ThreadLocal[Scratch]

  /** Thread-local scratch for graphs with at most n vertices. */
  def local(n: Int): Scratch = {
    val s = pool.get()
    if (s != null && s.n >= n) s
    else { val t = new Scratch(n); pool.set(t); t }
  }
}

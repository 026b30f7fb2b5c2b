package imbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.TimeUnit

import repro.graph.CSRGraph
import repro.sketch.SketchBuilder

/** `SketchSet.marginal` in a JVM where C2 never inlines
  * `SketchSet.getCenter`. The benchmark JVM raises the inlining limit so that
  * getCenter is always inlined and its `(δ, l)` tuple is scalar-replaced;
  * here the tuple must be allocated on every call, which is the cost a JVM
  * with default settings pays whenever it happens not to inline the call.
  * The BFS closure inside getCenter is forced inline, because whether C2
  * inlines it is a second per-JVM choice that changes the bytes allocated.
  */
object GetCenterProbe {

  private val Sample = 256
  private val WarmPasses = 10
  private val TimedPasses = 15
  private val DeadlineS = 120L

  /** (ns per marginal call, bytes allocated per GetCenter) measured in a
    * child JVM on the workload's first input for `seed`.
    */
  def inChildJvm(workload: String, seed: Long): (Double, Double) = {
    val java = Paths.get(sys.props("java.home"), "bin", "java").toString
    val cmd = Seq(java, "-Xms1g", "-Xmx1g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
                  "-XX:CompileCommand=quiet",
                  "-XX:CompileCommand=dontinline,repro.sketch.SketchSet::getCenter",
                  "-XX:CompileCommand=inline,repro.graph.CSRGraph::foreachNeighbor",
                  "-XX:CompileCommand=inline,repro.sketch.SketchSet::$anonfun*",
                  s"-Djava.io.tmpdir=${sys.props("java.io.tmpdir")}",
                  "-cp", sys.props("java.class.path"), "imbench.GetCenterProbe", workload, seed.toString)
    val outFile = Files.createTempFile("getcenter-probe", ".txt")
    val proc = new ProcessBuilder(cmd: _*).redirectOutput(outFile.toFile)
      .redirectError(ProcessBuilder.Redirect.INHERIT).start()
    if (!proc.waitFor(DeadlineS, TimeUnit.SECONDS)) {
      proc.destroyForcibly().waitFor()
      sys.error("the GetCenter probe JVM ran out of time")
    }
    val last = Files.readString(outFile).trim.linesIterator.toSeq.lastOption.getOrElse("")
    Files.delete(outFile)
    last.split(' ') match {
      case Array(ns, bytes) if proc.exitValue() == 0 => (ns.toDouble, bytes.toDouble)
      case _ => sys.error(s"the GetCenter probe JVM failed (exit ${proc.exitValue()}): $last")
    }
  }

  def main(argv: Array[String]): Unit = {
    val wl = Workload.all.find(_.name == argv(0)).getOrElse(sys.error(s"unknown workload ${argv(0)}"))
    val seed = argv(1).toLong
    val g = CSRGraph.fromPackedEdges(wl.n, wl.inputs(seed).head)
    val sk = SketchBuilder.build(g, wl.model, wl.sketches, wl.alpha)
    val rng = new SplitMix(seed ^ 0x6d617267L)
    val vs = Array.fill(Sample)(rng.nextInt(g.n))
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    var acc = 0.0
    (0 until WarmPasses).foreach(_ => vs.foreach(v => acc += sk.marginal(v)))
    val passes = (0 until TimedPasses).map { _ =>
      val a = mx.getCurrentThreadAllocatedBytes
      val t = System.nanoTime()
      vs.foreach(v => acc += sk.marginal(v))
      val ns = (System.nanoTime() - t).toDouble
      (ns / Sample, (mx.getCurrentThreadAllocatedBytes - a).toDouble / (Sample.toLong * wl.sketches))
    }
    require(acc >= 0)
    val (ns, bytes) = passes.sortBy(_._1).apply(TimedPasses / 2)
    println(s"$ns $bytes")
  }
}

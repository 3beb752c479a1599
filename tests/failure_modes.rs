//! Failure-injection and misuse tests: the stack must fail loudly and
//! precisely, the way real HCAs and CUDA fail, instead of corrupting data.

use gpu_nc_repro::mpi_sim::{Datatype, MpiWorld};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use hostmem::HostBuf;

#[test]
#[should_panic(expected = "truncated")]
fn device_truncation_is_detected() {
    GpuCluster::new(2).run(|env| {
        let t = Datatype::byte();
        t.commit();
        if env.comm.rank() == 0 {
            let dev = env.gpu.malloc(64 << 10);
            env.comm.send(dev, 64 << 10, &t, 1, 0);
        } else {
            let dev = env.gpu.malloc(1 << 10);
            env.comm.recv(dev, 1 << 10, &t, 0, 0);
        }
    });
}

#[test]
#[should_panic(expected = "simulation deadlock")]
fn mismatched_tags_deadlock_with_diagnostics() {
    MpiWorld::new(2).run(|comm| {
        let t = Datatype::byte();
        t.commit();
        let buf = HostBuf::alloc(1 << 20);
        if comm.rank() == 0 {
            comm.send(buf.base(), 1 << 20, &t, 1, 1); // tag 1 (rendezvous)
        } else {
            comm.recv(buf.base(), 1 << 20, &t, 0, 2); // tag 2: never matches
        }
    });
}

#[test]
#[should_panic(expected = "outside any live allocation")]
fn datatype_reaching_past_device_allocation_faults() {
    GpuCluster::new(2).run(|env| {
        // A column datatype whose footprint exceeds the allocation: the
        // device pack must fault like a GPU segfault, not read garbage.
        let col = Datatype::hvector(1024, 1, 1024, &Datatype::float());
        col.commit();
        let dev = env.gpu.malloc(4096); // far too small
        if env.comm.rank() == 0 {
            env.comm.send(dev, 1, &col, 1, 0);
        } else {
            env.comm.recv(dev, 1, &col, 0, 0);
        }
    });
}

#[test]
#[should_panic(expected = "outside any live allocation")]
fn indexed_datatype_reaching_past_device_allocation_faults() {
    GpuCluster::new(2).run(|env| {
        // Irregular blocks, so the device pack runs the gather kernel
        // instead of a 2-D copy; the last block lies 64 MiB past the
        // allocation and must fault there.
        let t = Datatype::indexed(&[(1, 0), (2, 3), (1, 16 << 20)], &Datatype::float());
        t.commit();
        let dev = env.gpu.malloc(4096);
        if env.comm.rank() == 0 {
            env.comm.send(dev, 1, &t, 1, 0);
        } else {
            env.comm.recv(dev, 1, &t, 0, 0);
        }
    });
}

#[test]
#[should_panic(expected = "exceeds host buffer")]
fn datatype_reaching_past_host_buffer_is_rejected() {
    MpiWorld::new(2).run(|comm| {
        let t = Datatype::vector(64, 1, 8, &Datatype::double());
        t.commit();
        let buf = HostBuf::alloc(256); // footprint is ~4 KB
        if comm.rank() == 0 {
            comm.send(buf.base(), 1, &t, 1, 0);
        } else {
            comm.recv(buf.base(), 1, &t, 0, 0);
        }
    });
}

#[test]
#[should_panic(expected = "before MPI_Type_commit")]
fn uncommitted_type_is_rejected() {
    MpiWorld::new(1).run(|comm| {
        let t = Datatype::vector(4, 1, 2, &Datatype::float()); // no commit
        let buf = HostBuf::alloc(64);
        comm.isend(buf.base(), 1, &t, 0, 0);
    });
}

#[test]
#[should_panic(expected = "cudaMalloc failed")]
fn device_oom_reports_clearly() {
    GpuCluster::new(1).gpu_mem(1 << 20).run(|env| {
        let _ = env.gpu.malloc(2 << 20);
    });
}

#[test]
fn zero_length_messages_work_everywhere() {
    GpuCluster::new(2).run(|env| {
        let t = Datatype::byte();
        t.commit();
        let dev = env.gpu.malloc(256);
        let host = HostBuf::alloc(256);
        if env.comm.rank() == 0 {
            env.comm.send(dev, 0, &t, 1, 0);
            env.comm.send(host.base(), 0, &t, 1, 1);
        } else {
            let st = env.comm.recv(dev, 0, &t, 0, 0);
            assert_eq!(st.bytes, 0);
            let st = env.comm.recv(host.base(), 0, &t, 0, 1);
            assert_eq!(st.bytes, 0);
        }
    });
}

#[test]
fn send_to_self_completes() {
    MpiWorld::new(1).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let out = HostBuf::from_vec(vec![7; 64]);
        let inb = HostBuf::alloc(64);
        let r = comm.irecv(inb.base(), 16, &t, 0, 0u32);
        comm.send(out.base(), 16, &t, 0, 0);
        comm.wait(r);
        assert_eq!(inb.read(0, 64), vec![7; 64]);
    });
}

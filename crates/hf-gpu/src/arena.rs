//! Device memory: a byte-addressed arena per device and typed views into it.

use crate::error::GpuError;
use crate::plain::{self, Plain};

/// A pointer into device memory — the software analogue of a raw CUDA
/// device pointer, made self-describing: it carries the owning device, the
/// byte offset inside that device's arena, and the logical length of the
/// allocation.
///
/// The paper's kernel tasks receive device pointers through
/// `PointerCaster` (Listing 9); here the kernel context resolves a
/// `DevicePtr` to a typed slice instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr {
    /// Device that owns the allocation.
    pub device: u32,
    /// Byte offset inside the device arena.
    pub offset: u64,
    /// Logical allocation length in bytes (what the user asked for, not
    /// the rounded buddy block).
    pub len: u64,
    /// Reserved capacity in bytes — the rounded buddy block backing this
    /// allocation. Always `>= len`. Residency reuse may grow `len` up to
    /// `capacity` without reallocating, and `free` accounting matches the
    /// reservation rather than the request.
    pub capacity: u64,
}

impl DevicePtr {
    /// A null device pointer (no allocation).
    pub const NULL: DevicePtr = DevicePtr {
        device: u32::MAX,
        offset: u64::MAX,
        len: 0,
        capacity: 0,
    };

    /// True for the null pointer.
    pub fn is_null(&self) -> bool {
        self.device == u32::MAX
    }

    /// Number of `T` elements this allocation holds.
    pub fn len_as<T: Plain>(&self) -> usize {
        self.len as usize / std::mem::size_of::<T>()
    }
}

/// The raw memory of one device.
#[derive(Debug)]
pub struct Arena {
    mem: Box<[u8]>,
    device: u32,
}

impl Arena {
    /// Allocates a zeroed arena of `capacity` bytes for `device`.
    pub fn new(device: u32, capacity: usize) -> Self {
        Self {
            mem: vec![0u8; capacity].into_boxed_slice(),
            device,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.mem.len()
    }

    /// Mutable view over the whole arena.
    pub fn view(&mut self) -> ArenaView<'_> {
        ArenaView {
            device: self.device,
            mem: &mut self.mem,
        }
    }
}

/// A mutable window over a device arena, resolving [`DevicePtr`]s to byte
/// or typed slices. Handed to executing stream operations (copies and
/// kernels).
#[derive(Debug)]
pub struct ArenaView<'a> {
    device: u32,
    mem: &'a mut [u8],
}

impl<'a> ArenaView<'a> {
    fn check(&self, p: DevicePtr) -> Result<(usize, usize), GpuError> {
        if p.is_null() {
            return Err(GpuError::InvalidFree(p.offset));
        }
        if p.device != self.device {
            return Err(GpuError::WrongDevice {
                owner: p.device,
                used_on: self.device,
            });
        }
        let start = p.offset as usize;
        let end = start + p.len as usize;
        if end > self.mem.len() {
            return Err(GpuError::SizeMismatch {
                dst: self.mem.len().saturating_sub(start),
                src: p.len as usize,
            });
        }
        Ok((start, end))
    }

    /// Immutable byte view of an allocation.
    pub fn bytes(&self, p: DevicePtr) -> Result<&[u8], GpuError> {
        let (s, e) = self.check(p)?;
        Ok(&self.mem[s..e])
    }

    /// Mutable byte view of an allocation.
    pub fn bytes_mut(&mut self, p: DevicePtr) -> Result<&mut [u8], GpuError> {
        let (s, e) = self.check(p)?;
        Ok(&mut self.mem[s..e])
    }

    /// [`Self::check`] plus the element-size check of a typed view.
    fn check_typed<T: Plain>(&self, p: DevicePtr) -> Result<(usize, usize), GpuError> {
        let (s, e) = self.check(p)?;
        if (e - s) % std::mem::size_of::<T>() != 0 {
            return Err(GpuError::TypeMismatch {
                bytes: e - s,
                elem: std::mem::size_of::<T>(),
            });
        }
        Ok((s, e))
    }

    /// Immutable typed view.
    pub fn slice<T: Plain>(&self, p: DevicePtr) -> Result<&[T], GpuError> {
        let (s, e) = self.check_typed::<T>(p)?;
        Ok(plain::from_bytes(&self.mem[s..e]))
    }

    /// Mutable typed view.
    pub fn slice_mut<T: Plain>(&mut self, p: DevicePtr) -> Result<&mut [T], GpuError> {
        let (s, e) = self.check_typed::<T>(p)?;
        Ok(plain::from_bytes_mut(&mut self.mem[s..e]))
    }

    /// Shared typed views of `reads` plus one mutable typed view of
    /// `write` — the shape of a kernel that reads its inputs in place and
    /// updates one output array. Reads may alias each other; the write
    /// must overlap none of them (`SizeMismatch` otherwise).
    pub fn split<R: Plain, W: Plain, const N: usize>(
        &mut self,
        reads: [DevicePtr; N],
        write: DevicePtr,
    ) -> Result<([&[R]; N], &mut [W]), GpuError> {
        let (ws, we) = self.check_typed::<W>(write)?;
        let mut ranges = [(0, 0); N];
        for (range, p) in ranges.iter_mut().zip(reads) {
            let (s, e) = self.check_typed::<R>(p)?;
            if s < we && ws < e {
                return Err(GpuError::SizeMismatch { dst: we - ws, src: e - s });
            }
            *range = (s, e);
        }
        // SAFETY: every range is in bounds (checked above) and the write
        // range is disjoint from every read range, so the one `&mut`
        // aliases no shared view; reads may overlap one another because
        // they are all shared. All views derive from the single
        // `&mut self`, which the returned lifetimes keep borrowed.
        unsafe {
            let base = self.mem.as_mut_ptr();
            let views = ranges
                .map(|(s, e)| plain::from_bytes(std::slice::from_raw_parts(base.add(s), e - s)));
            let w = std::slice::from_raw_parts_mut(base.add(ws), we - ws);
            Ok((views, plain::from_bytes_mut(w)))
        }
    }

    /// Two disjoint mutable typed views — the common kernel shape
    /// (`y[i] = a*x[i] + y[i]` needs `x` and `y` simultaneously).
    ///
    /// Returns `SizeMismatch` if the allocations overlap.
    pub fn slice2_mut<A: Plain, B: Plain>(
        &mut self,
        pa: DevicePtr,
        pb: DevicePtr,
    ) -> Result<(&mut [A], &mut [B]), GpuError> {
        let (sa, ea) = self.check(pa)?;
        let (sb, eb) = self.check(pb)?;
        if sa < eb && sb < ea {
            return Err(GpuError::SizeMismatch { dst: ea - sa, src: eb - sb });
        }
        // SAFETY: ranges verified disjoint and in-bounds; both borrows are
        // derived from the single &mut self.
        unsafe {
            let base = self.mem.as_mut_ptr();
            let a = std::slice::from_raw_parts_mut(base.add(sa), ea - sa);
            let b = std::slice::from_raw_parts_mut(base.add(sb), eb - sb);
            Ok((plain::from_bytes_mut(a), plain::from_bytes_mut(b)))
        }
    }

    /// Three disjoint mutable typed views.
    #[allow(clippy::type_complexity)]
    pub fn slice3_mut<A: Plain, B: Plain, C: Plain>(
        &mut self,
        pa: DevicePtr,
        pb: DevicePtr,
        pc: DevicePtr,
    ) -> Result<(&mut [A], &mut [B], &mut [C]), GpuError> {
        let (sa, ea) = self.check(pa)?;
        let (sb, eb) = self.check(pb)?;
        let (sc, ec) = self.check(pc)?;
        let overlap = (sa < eb && sb < ea) || (sa < ec && sc < ea) || (sb < ec && sc < eb);
        if overlap {
            return Err(GpuError::SizeMismatch { dst: 0, src: 0 });
        }
        // SAFETY: as in `slice2_mut`.
        unsafe {
            let base = self.mem.as_mut_ptr();
            let a = std::slice::from_raw_parts_mut(base.add(sa), ea - sa);
            let b = std::slice::from_raw_parts_mut(base.add(sb), eb - sb);
            let c = std::slice::from_raw_parts_mut(base.add(sc), ec - sc);
            Ok((
                plain::from_bytes_mut(a),
                plain::from_bytes_mut(b),
                plain::from_bytes_mut(c),
            ))
        }
    }

    /// Host-to-device copy into the allocation (the body of a pull task).
    pub fn copy_in(&mut self, p: DevicePtr, src: &[u8]) -> Result<(), GpuError> {
        let dst = self.bytes_mut(p)?;
        if dst.len() < src.len() {
            return Err(GpuError::SizeMismatch {
                dst: dst.len(),
                src: src.len(),
            });
        }
        dst[..src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Device-to-host copy out of the allocation (the body of a push task).
    pub fn copy_out(&self, p: DevicePtr, dst: &mut [u8]) -> Result<(), GpuError> {
        let src = self.bytes(p)?;
        if src.len() < dst.len() {
            return Err(GpuError::SizeMismatch {
                dst: dst.len(),
                src: src.len(),
            });
        }
        dst.copy_from_slice(&src[..dst.len()]);
        Ok(())
    }

    /// Device-to-device copy between two allocations on this device.
    pub fn copy_d2d(&mut self, dst: DevicePtr, src: DevicePtr) -> Result<(), GpuError> {
        let (ss, se) = self.check(src)?;
        let (ds, de) = self.check(dst)?;
        let n = (se - ss).min(de - ds);
        self.mem.copy_within(ss..ss + n, ds);
        Ok(())
    }

    /// Device id this view belongs to.
    pub fn device(&self) -> u32 {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(offset: u64, len: u64) -> DevicePtr {
        DevicePtr { device: 0, offset, len, capacity: len }
    }

    #[test]
    fn copy_in_out_round_trip() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        let p = ptr(16, 8);
        v.copy_in(p, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut out = [0u8; 8];
        v.copy_out(p, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn typed_views() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        let p = ptr(0, 16);
        v.slice_mut::<f32>(p).unwrap().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.slice::<f32>(p).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrong_device_rejected() {
        let mut a = Arena::new(1, 64);
        let v = a.view();
        let p = ptr(0, 8); // device 0
        assert!(matches!(v.bytes(p), Err(GpuError::WrongDevice { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut a = Arena::new(0, 64);
        let v = a.view();
        assert!(v.bytes(ptr(60, 8)).is_err());
    }

    #[test]
    fn split2_disjoint_ok_overlap_err() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        let (x, y) = v.slice2_mut::<u32, u32>(ptr(0, 16), ptr(16, 16)).unwrap();
        x[0] = 7;
        y[3] = 9;
        assert!(v.slice2_mut::<u32, u32>(ptr(0, 16), ptr(8, 16)).is_err());
    }

    #[test]
    fn split3_overlap_err() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        assert!(v
            .slice3_mut::<u8, u8, u8>(ptr(0, 16), ptr(32, 16), ptr(40, 16))
            .is_err());
        assert!(v
            .slice3_mut::<u8, u8, u8>(ptr(0, 16), ptr(32, 8), ptr(48, 16))
            .is_ok());
    }

    #[test]
    fn split_reads_alias_write_must_be_disjoint() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        v.slice_mut::<u32>(ptr(0, 16)).unwrap().copy_from_slice(&[1, 2, 3, 4]);
        // Two reads of the same buffer alias; the write sits elsewhere.
        let ([x, y], w) = v.split::<u32, u32, 2>([ptr(0, 16), ptr(0, 16)], ptr(64, 8)).unwrap();
        w[0] = x[1] + y[2];
        assert_eq!(v.slice::<u32>(ptr(64, 8)).unwrap(), &[5, 0]);
        // A write overlapping any read is rejected.
        assert!(matches!(
            v.split::<u32, u32, 2>([ptr(64, 8), ptr(0, 16)], ptr(8, 16)),
            Err(GpuError::SizeMismatch { .. })
        ));
        // Element-size and bounds checks hold for reads and the write.
        assert!(matches!(
            v.split::<u32, u8, 1>([ptr(0, 6)], ptr(64, 8)),
            Err(GpuError::TypeMismatch { .. })
        ));
        assert!(matches!(
            v.split::<u8, u64, 1>([ptr(0, 6)], ptr(64, 12)),
            Err(GpuError::TypeMismatch { .. })
        ));
        assert!(v.split::<u8, u8, 1>([ptr(250, 16)], ptr(64, 8)).is_err());
        assert!(matches!(
            v.split::<u8, u8, 0>([], DevicePtr { device: 1, ..ptr(0, 8) }),
            Err(GpuError::WrongDevice { .. })
        ));
    }

    #[test]
    fn d2d_copy() {
        let mut a = Arena::new(0, 128);
        let mut v = a.view();
        v.copy_in(ptr(0, 4), &[9, 8, 7, 6]).unwrap();
        v.copy_d2d(ptr(64, 4), ptr(0, 4)).unwrap();
        assert_eq!(v.bytes(ptr(64, 4)).unwrap(), &[9, 8, 7, 6]);
    }

    #[test]
    fn null_ptr_rejected() {
        let mut a = Arena::new(0, 64);
        let v = a.view();
        assert!(v.bytes(DevicePtr::NULL).is_err());
    }
}
